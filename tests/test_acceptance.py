"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with its runtime (run with ``pytest -s`` to see them all).
"""

import time
from contextlib import contextmanager

import numpy as np

import bishadow as bs
from bishadow.refinement import make_refinement_config, refine
from bishadow.splitting import Splitting, eigen_splitting, min_norm, op_norm

from _oracles import (
    CAT_CONTRACTING,
    CAT_EXPANDING,
    constant_blocks,
    feasible_by_interval,
    feasible_by_lp,
    graph_fixed_point_quadratic,
    iterate_graph_sweeps,
    iterate_orbit,
    quotient_log_bounds,
    random_affine_system,
    random_quasi_hyperbolic_pair,
    solve_unstable_graphs,
    unstable_graph_sweep,
    unstable_invariance_residuals,
    verify_well_adapted,
)

AXES = Splitting(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_cat_map_certification():
    with criterion(1, "cat-map certificate and minimal certified rate", 1.0):
        f = bs.cat_map()
        po = bs.generate(f, [0.21, 0.68], [3, 3, 3], 0.0, 0)
        spl = bs.assign_splittings(po, f, "eigen")
        cert = bs.certify_pseudo_orbit(po, spl, f, 0.62, 0.0, 0.0)
        assert cert.passed
        lam = bs.min_feasible_lambda(po, spl, f, 0.0)
        assert abs(lam - CAT_CONTRACTING) <= 1e-6
        assert abs(op_norm(cert.blocks.D[0]) - CAT_CONTRACTING) <= 1e-10
        assert abs(min_norm(cert.blocks.A[0]) - CAT_EXPANDING) <= 1e-10


def test_criterion_2_well_adapted_construction():
    with criterion(2, "well-adapted sequences on 10^4 random rate pairs", 10.0):
        rng = np.random.default_rng(2024)
        failures = 0
        lp_checked = 0
        for i in range(10_000):
            n = int(rng.integers(1, 21))
            lam = rng.uniform(0.1, 0.9)
            a, b = random_quasi_hyperbolic_pair(rng, n, lam)
            c = bs.well_adapted_sequence(a, b, lam)
            if not verify_well_adapted(a, b, c, lam):
                failures += 1
            if n <= 6:
                alpha, beta = quotient_log_bounds(a, b, lam)
                if not feasible_by_interval(alpha, beta):
                    failures += 1
                if lp_checked < 100:
                    assert feasible_by_lp(alpha, beta)
                    lp_checked += 1
        assert failures == 0
        assert lp_checked == 100


def test_criterion_3_graph_transform():
    with criterion(3, "graph transform: scalar oracle and refined splitting", 5.0):
        blocks = constant_blocks(60, 2.0, 0.1, 0.1, 0.5)
        p = solve_unstable_graphs(blocks)
        root = graph_fixed_point_quadratic(2.0, 0.1, 0.1, 0.5)
        assert abs(p[-1][0, 0] - root) <= 1e-9
        assert unstable_invariance_residuals(p, blocks).max() <= 1e-10
        oracle, updates = iterate_graph_sweeps(unstable_graph_sweep, blocks)
        assert all(x > y for x, y in zip(updates, updates[1:]))
        assert np.abs(p - oracle).max() <= 1e-12

        f = bs.PerturbedCatMap(0.005)
        po = bs.generate(f, [0.3, 0.7], [3, 3, 3], 1e-5, 7)
        base = eigen_splitting(np.array([[2.0, 1.0], [1.0, 1.0]]))
        spl = bs.assign_splittings(po, f, "user", splittings=base)
        rcfg = make_refinement_config(0.4, 0.5, R=2.63)
        result = refine(po, spl, f, rcfg)
        assert result.certificate.passed
        assert result.certificate.lam == 0.5
        assert result.certificate.max_offdiagonal <= 1e-8
        assert bs.is_quasi_hyperbolic(result.certificate, 1e-8)


def test_criterion_4_affine_oracle_equivalence():
    with criterion(4, "solver equals closed-form oracle on 100 affine systems", 10.0):
        rng = np.random.default_rng(0)
        for _ in range(100):
            sysm, sp = random_affine_system(rng)
            po = sysm.zero_pseudo_orbit()
            spl = bs.assign_splittings(po, sysm, "user", splittings=sp)
            cfg = bs.make_solver_config(po, sysm, lam=0.75, lam_tilde=0.8,
                                        epsilon1=1.0, tol_fix=1e-10)
            res = bs.solve_finite(po, spl, sysm, sysm, cfg)
            oracle = bs.bounded_orbit_closed_form(sysm)
            assert res.converged
            assert np.abs(res.v - oracle).max() <= 1e-8

        f = bs.AffineMap(np.diag([2.0, 0.5]))
        seeds = np.zeros((9, 2))
        seeds[1] = [1e-3, 1e-3]
        po = bs.flatten(seeds, [1] * 8, f)
        spl = bs.assign_splittings(po, f, "user", splittings=AXES)
        cfg = bs.make_solver_config(po, f, lam=0.55, lam_tilde=0.7, epsilon1=1.0)
        res = bs.solve_finite(po, spl, f, f, cfg)
        assert np.linalg.norm(res.shadow_point) <= 1e-10


def test_criterion_5_end_to_end_bishadowing():
    with criterion(5, "cat-map bi-shadowing with jumps and a shifted map", 2.0):
        f = bs.cat_map()
        po = bs.generate(f, [0.13, 0.41], [4] * 5, 1e-4, 42)
        spl = bs.assign_splittings(po, f, "eigen")
        g = bs.ShiftedMap(f, [1e-4, 0.0])
        cfg = bs.make_solver_config(po, f, lam=0.4, lam_tilde=0.5)
        cert, margins, _ = bs.shadowing_preconditions(po, spl, f, g, cfg)
        assert cert.passed and min(margins.values()) >= 0
        res = bs.solve_finite(po, spl, f, g, cfg)
        assert res.converged
        assert res.max_distance <= cfg.epsilon1
        assert res.residual_max <= 1e-11
        assert res.ball_margin <= 1.0  # eta-ball invariant never tripped


def test_criterion_6_infinite_windowing():
    with criterion(6, "windowed two-sided shadowing: decay and periodic input", 5.0):
        f = bs.cat_map()
        master = bs.generate(f, [0.2, 0.6], [2] * 21, 1e-4, 11, i_min=-10)
        g = bs.ShiftedMap(f, [5e-5, 5e-5])
        cfg = bs.make_solver_config(master, f, lam=0.4, lam_tilde=0.5, tol_fix=1e-13)

        def window_problem(k):
            w = master.window(-k, k)
            return w, bs.assign_splittings(w, f, "eigen"), f, g

        _, table = bs.solve_infinite(window_problem, [2, 4, 6, 8, 10], cfg)
        d = table.diffs()
        assert all(d[i] / d[i + 1] >= 1.5 for i in range(len(d) - 1))

        # periodic input data: every window returns the same anchor vector
        cyc = [p for p in bs.cat_map_periodic_points(2) if p != (0, 0)][0]
        x0 = np.array([float(v) for v in cyc])
        seeds = [f.phase.canon(x0) if i % 2 == 0 else f(x0) for i in range(22)]
        per = bs.flatten(np.array(seeds), [1] * 21, f, i_min=-10)
        assert np.all(per.residuals <= 1e-15)

        def periodic_problem(k):
            w = per.window(-k, k)
            return w, bs.assign_splittings(w, f, "eigen"), f, f

        _, table = bs.solve_infinite(periodic_problem, [2, 4, 6, 8, 10], cfg)
        v0s = [r.v0 for r in table.rows]
        assert all(np.array_equal(v, v0s[0]) for v in v0s)


def test_criterion_7_periodic_bishadowing():
    with criterion(7, "periodic shadowing: exact cycle and perturbed cycle", 2.0):
        f = bs.cat_map()
        cyc = [p for p in bs.cat_map_periodic_points(2) if p != (0, 0)][0]
        x0 = np.array([float(v) for v in cyc])
        orbit = iterate_orbit(f, x0, 1)
        po = bs.flatten(np.array([orbit[0], orbit[1], orbit[0]]), [1, 1], f)
        spl = bs.assign_splittings(po, f, "eigen")
        cfg = bs.make_solver_config(po, f, lam=0.4, lam_tilde=0.5)
        res = bs.solve_periodic(po, spl, f, f, cfg)
        assert res.converged
        assert np.linalg.norm(res.shadow_point - x0) <= 1e-10
        assert res.periodic_closure <= 1e-10
        assert res.periodic_closure_polished <= 1e-12

        cyc3 = [p for p in bs.cat_map_periodic_points(3) if p != (0, 0)][0]
        orb = iterate_orbit(f, np.array([float(v) for v in cyc3]), 3)
        rng = np.random.default_rng(5)
        jit = [f.phase.canon(orb[i] + 1e-4 * rng.standard_normal(2)) for i in range(3)]
        po3 = bs.flatten(np.array(jit + [jit[0]]), [1, 1, 1], f)
        spl3 = bs.assign_splittings(po3, f, "eigen")
        g = bs.ShiftedMap(f, [1e-4, 0.0])
        cfg3 = bs.make_solver_config(po3, f, lam=0.4, lam_tilde=0.5)
        res3 = bs.solve_periodic(po3, spl3, f, g, cfg3)
        assert res3.converged
        assert np.linalg.norm(res3.v[0] - res3.v[po3.n_steps]) <= 1e-10
        # converged, then polished by one more update; each closure is the
        # largest one-step residual around the cycle, the polished one at roundoff
        assert res3.update_history[-2] < cfg3.tol_fix
        assert res3.iterations == len(res3.update_history)
        assert res3.periodic_closure <= 1e-10
        assert res3.periodic_closure_polished <= 1e-12


def test_criterion_8_brute_force_sanity():
    with criterion(8, "solver within one grid cell of exhaustive search", 60.0):
        f = bs.cat_map()
        rng = np.random.default_rng(88)
        bounds = bs.system_bounds(f)
        cell = np.sqrt(2.0) * (0.04 / 40)
        for run in range(20):
            n_segs = int(rng.integers(3, 6))
            lengths = rng.integers(1, 3, n_segs).tolist()
            while sum(lengths) > 10:
                lengths = lengths[:-1]
            jump = float(rng.uniform(1e-4, 1e-3))
            shift = rng.standard_normal(2)
            shift *= rng.uniform(1e-5, 2.5e-4) / np.linalg.norm(shift)
            po = bs.generate(f, rng.random(2), lengths, jump, int(rng.integers(1e6)))
            spl = bs.assign_splittings(po, f, "eigen")
            g = bs.ShiftedMap(f, shift)
            cfg = bs.make_solver_config(po, f, lam=0.4, lam_tilde=0.5, bounds=bounds)
            res = bs.solve_finite(po, spl, f, g, cfg)
            assert res.converged
            _, best_score = bs.brute_force_shadow(f, g, po, radius=0.02, grid_res=41)
            assert res.max_distance <= best_score + cell


def test_criterion_9_sweep_determinism(tmp_path):
    with criterion(9, "byte-identical sweep output for identical config and seed", 5.0):
        import json

        from bishadow.cli import main

        payload = {
            "system": {"type": "cat_map"},
            "pseudo_orbit": {"generator": {"start": [0.13, 0.41], "lengths": [3, 3, 3],
                                           "jump_amp": 1e-4, "rng_seed": 42}},
            "certification": {"lambda": 0.4, "epsilon": 0.0, "delta": 1e-4},
            "solver": {"lambda_tilde": 0.5},
            "perturbation": {"type": "shift", "offset": [1e-4, 0.0]},
            "sweep": {"axis": "delta", "values": [1e-5, 1e-4, 2e-4]},
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(payload))
        outs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            code = main(["sweep", "--config", str(cfg_path), "--out", str(out),
                         "--seed", "42"])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
