import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bishadow.oracle import AffineSequenceSystem
from bishadow.pseudo_orbit import (
    SegmentedPseudoOrbit,
    SplittingAssignment,
    SplittingError,
    _orth_image,
    assign_splittings,
    flatten,
    generate,
    pull_back,
    push_forward,
)
from bishadow.splitting import Splitting, eigen_splitting
from bishadow.systems import AffineMap, PerturbedCatMap, cat_map

from _oracles import iterate_orbit, pull_back_qr, push_forward_qr


def orbit_seeds(f, x0, lengths):
    """Seeds lying on a genuine orbit (zero residuals)."""
    seeds = [f.phase.canon(np.asarray(x0, float))]
    for n in lengths:
        seeds.append(iterate_orbit(f, seeds[-1], int(n))[-1])
    return np.stack(seeds)


class TestFlatten:
    def test_offsets_formula(self):
        f = cat_map()
        seeds = orbit_seeds(f, [0.12, 0.34], [2, 3, 1])
        po = flatten(seeds, [2, 3, 1], f)
        assert list(po.offsets) == [0, 2, 5, 6]
        assert po.n_steps == 6
        assert po.points.shape == (7, 2)

    def test_genuine_orbit_zero_residual(self):
        f = cat_map()
        seeds = orbit_seeds(f, [0.2, 0.7], [4])
        po = flatten(seeds, [4], f)
        assert po.residuals[0] == 0.0

    def test_injected_jump_residual(self):
        f = cat_map()
        rng = np.random.default_rng(8)
        seeds = orbit_seeds(f, [0.2, 0.7], [3, 3])
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        seeds[1] = f.phase.exp(seeds[1], 1e-4 * u)
        po = flatten(seeds, [3, 3], f)
        assert abs(po.residuals[0] - 1e-4) <= 1e-15

    def test_segment_orbit_property_exact(self):
        f = cat_map()
        po = generate(f, [0.31, 0.77], [3, 2, 4], 1e-3, 5)
        for start, stop in zip(po.offsets[:-1], po.offsets[1:]):
            for t in range(start, stop - 1):
                assert np.array_equal(f(po.points[t]), po.points[t + 1])

    def test_seed_count_guard(self):
        f = cat_map()
        with pytest.raises(ValueError):
            flatten(np.zeros((2, 2)), [1, 1], f)
        with pytest.raises(ValueError):
            flatten(np.zeros((1, 2)), [], f)
        with pytest.raises(ValueError):
            flatten(np.zeros((3, 2)), [1, 0], f)

    def test_two_sided_offsets(self):
        f = cat_map()
        seeds = orbit_seeds(f, [0.4, 0.9], [2, 3, 4])
        po = flatten(seeds, [2, 3, 4], f, i_min=-1)
        assert po.N(-1) == -2 and po.N(0) == 0 and po.N(1) == 3 and po.N(2) == 7
        assert po.center == 2
        assert np.array_equal(po.points[po.center], po.seeds[1])

    def test_resegmenting_recovers_seeds_and_lengths(self):
        f = cat_map()
        po = generate(f, [0.31, 0.77], [3, 1, 4, 2], 1e-4, 6)
        assert np.array_equal(po.points[po.offsets[:-1]], po.seeds[:-1])
        assert np.array_equal(po.points[po.offsets[-1]], po.seeds[-1])
        assert np.array_equal(np.diff(po.offsets), po.lengths)
        for i in range(po.i_min, po.i_max + 1):
            assert np.array_equal(po.points[po.position(i)], po.seeds[i - po.i_min])

    def test_window_round_trip(self):
        f = cat_map()
        po = generate(f, [0.1, 0.2], [2] * 7, 1e-4, 3, i_min=-3)
        w = po.window(-1, 1)
        assert w.n_segments == 3 and w.i_min == -1
        assert np.array_equal(w.seeds, po.seeds[2:6])
        assert np.array_equal(w.points, po.points[po.position(-1): po.position(2) + 1])
        assert np.array_equal(w.residuals, po.residuals[2:5])


class TestGenerate:
    def test_zero_jump_is_genuine_orbit(self):
        f = cat_map()
        po = generate(f, [0.3, 0.6], [3, 3], 0.0, 1)
        assert np.all(po.residuals == 0.0)
        for j in range(po.n_steps):
            assert np.array_equal(po.points[j + 1], f(po.points[j]))

    def test_determinism(self):
        f = cat_map()
        a = generate(f, [0.3, 0.6], [2, 2, 2], 1e-4, 42)
        b = generate(f, [0.3, 0.6], [2, 2, 2], 1e-4, 42)
        assert a.to_json() == b.to_json()
        c = generate(f, [0.3, 0.6], [2, 2, 2], 1e-4, 43)
        assert a.to_json() != c.to_json()

    def test_residuals_equal_amplitude(self):
        f = cat_map()
        po = generate(f, [0.3, 0.6], [2, 3, 1, 2], 1e-4, 7)
        assert np.abs(po.residuals - 1e-4).max() <= 1e-15

    def test_amplitude_guard(self):
        f = cat_map()
        with pytest.raises(ValueError):
            generate(f, [0.3, 0.6], [2], 0.5, 0)

    def test_length_guards_match_flatten(self):
        f = cat_map()
        for lengths, message in (([], "at least one segment"), ([2, 0], "must be positive")):
            with pytest.raises(ValueError, match=message):
                flatten(np.zeros((len(lengths) + 1, 2)), lengths, f)
            with pytest.raises(ValueError, match=message):
                generate(f, [0.3, 0.6], lengths, 1e-4, 0)

    @pytest.mark.parametrize("system, start, lengths, i_min", [
        ("cat", [0.3, 0.6], [3, 1, 4, 1, 5], 0),
        ("perturbed", [0.91, 0.02], [2] * 30, -7),
        ("affine", [1.5, -0.25, 2.0], [1, 2, 3], 0),
        ("sequence", [0.0, 0.0], [4, 2, 6], 2),
    ])
    def test_equals_flatten_of_its_seeds(self, system, start, lengths, i_min):
        # generate fills points and residuals in its one walk; flatten walks
        # the same seeds again and must give the same bits
        if system == "cat":
            f = cat_map()
        elif system == "perturbed":
            f = PerturbedCatMap(0.03)
        elif system == "affine":
            f = AffineMap(np.array([[2.0, 0.3, 0.0], [0.1, 0.5, 0.2], [0.0, 0.4, 1.5]]), [0.1, 0, 0])
        else:
            mats = np.random.default_rng(4).standard_normal((12, 2, 2)) + 2.0 * np.eye(2)
            axes = Splitting(np.eye(2)[:, :1], np.eye(2)[:, 1:])
            f = AffineSequenceSystem(mats, np.zeros((12, 2)), axes, validate=False)
        po = generate(f, start, lengths, 1e-3, 17, i_min=i_min)
        again = flatten(po.seeds, po.lengths, f, i_min=i_min)
        assert po.to_json() == again.to_json()
        for name in ("seeds", "lengths", "points", "residuals", "offsets"):
            assert np.array_equal(getattr(po, name), getattr(again, name))
        assert po.i_min == again.i_min


class TestSerialization:
    def test_json_round_trip_bitstable(self):
        f = PerturbedCatMap(0.01)
        po = generate(f, [0.123456789, 0.987654321], [3, 2], 1e-4, 9)
        back = SegmentedPseudoOrbit.from_json(po.to_json())
        assert np.array_equal(back.points, po.points)
        assert np.array_equal(back.seeds, po.seeds)
        assert np.array_equal(back.residuals, po.residuals)
        assert back.i_min == po.i_min

    def test_json_is_reference_text(self):
        # the payload is strings and ints, so loading it back is exact
        po = generate(PerturbedCatMap(0.01), [0.123456789, 0.987654321], [3, 2], 1e-4, 9)
        text = po.to_json()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2)


class TestAssignSplittings:
    def test_eigen_constant(self):
        f = cat_map()
        po = generate(f, [0.11, 0.23], [2, 2], 1e-4, 0)
        spl = assign_splittings(po, f, "eigen")
        assert len(spl) == po.n_steps + 1
        ref = eigen_splitting(f.matrix)
        for j in range(len(spl)):
            assert np.allclose(spl[j].basis, ref.basis)

    def test_user_passthrough(self):
        f = cat_map()
        po = generate(f, [0.11, 0.23], [2], 0.0, 0)
        sp = eigen_splitting(f.matrix)
        spl = assign_splittings(po, f, "user", splittings=sp)
        assert len(spl) == po.n_steps + 1
        for stack, arr in ((spl.unstable, sp.unstable), (spl.stable, sp.stable),
                           (spl.basis_inv, sp.basis_inv)):
            assert np.shares_memory(stack, arr)  # a broadcast view, not copies
            assert all(np.array_equal(row, arr) for row in stack)

    def test_eigen_rejects_varying_derivative(self):
        f = PerturbedCatMap(0.05)
        po = generate(f, [0.11, 0.23], [3], 0.0, 0)
        with pytest.raises(SplittingError):
            assign_splittings(po, f, "eigen")

    def test_power_iteration_near_unperturbed(self):
        f = PerturbedCatMap(0.01)
        po = generate(f, [0.37, 0.58], [4] * 6, 0.0, 2)
        spl = assign_splittings(po, f, "power", depth=50)
        # oracle: straight 50-step forward/backward products with one final QR
        jacs = [f.jacobian(po.points[j]) for j in range(po.n_steps)]
        ref = eigen_splitting(np.array([[2.0, 1.0], [1.0, 1.0]]))
        for j in (po.n_steps // 2, po.n_steps - 1):
            prod = np.eye(2)
            for t in range(max(0, j - 50), j):
                prod = jacs[t] @ prod
                prod /= np.linalg.norm(prod)
            u_dir = (prod @ ref.unstable).ravel()
            u_dir /= np.linalg.norm(u_dir)
            u_spl = spl[j].unstable.ravel()
            angle = np.arccos(min(1.0, abs(float(u_dir @ u_spl))))
            assert angle <= 0.05
            ref_angle = np.arccos(min(1.0, abs(float(ref.unstable.ravel() @ u_spl))))
            assert ref_angle <= 0.05

    def test_power_iteration_wraps_around_closed_orbit(self):
        # one period of a cycle against the middle of five repeated periods
        # with an open end: a warm-up of two periods makes the closed passes
        # see the same Jacobians as the open ones, and the seam index 3 is
        # index 0
        f = PerturbedCatMap(0.01)
        cycle = [[0.75, 0.5], [0.0, 0.25], [0.25, 0.25]]
        closed = flatten(np.array(cycle + cycle[:1]), [1] * 3, f)
        open_end = flatten(np.array(cycle * 5 + [[0.8, 0.5]]), [1] * 15, f)
        spl_closed = assign_splittings(closed, f, "power", depth=6)
        spl_open = assign_splittings(open_end, f, "power", depth=6)
        assert np.array_equal(spl_closed[0].basis, spl_closed[3].basis)
        for j in range(4):
            assert np.array_equal(spl_closed[j].basis, spl_open[6 + j % 3].basis)
        assert not np.allclose(spl_open[0].basis, spl_open[3].basis, atol=1e-9)

    def test_power_rejects_collapsed_subspaces(self):
        # a quarter turn after a hyperbolic step carries the stable axis
        # onto the unstable one, so the passes meet at every index
        hyperbolic = np.diag([2.0, 0.5])
        quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
        f = AffineSequenceSystem([hyperbolic, quarter], np.zeros((2, 2)),
                                 eigen_splitting(hyperbolic), validate=False)
        po = flatten(np.zeros((2, 2)), [2], f)
        with pytest.raises(SplittingError, match="at index 0$"):
            assign_splittings(po, f, "power")
        with pytest.raises(ValueError, match="nonnegative depth"):
            assign_splittings(po, f, "power", depth=-1)

    def test_power_open_orbit_ignores_depth(self):
        f = PerturbedCatMap(0.03)
        po = generate(f, [0.41, 0.17], [3] * 20, 1e-4, 5)
        shallow = assign_splittings(po, f, "power", depth=1)
        deep = assign_splittings(po, f, "power", depth=50)
        for name in ("unstable", "stable", "basis_inv"):
            assert np.array_equal(getattr(shallow, name), getattr(deep, name))

    @pytest.mark.parametrize("closed, depth", [(False, 2), (True, 50)])
    def test_power_bases_are_invariant(self, closed, depth):
        # J_j carries u_j onto u_{j+1} and s_j onto s_{j+1} at every step,
        # whatever the depth on an open orbit, and across the seam of a
        # closed orbit once the warm-up has converged
        f = PerturbedCatMap(0.02)
        po = generate(f, [0.3, 0.7], [4] * 125, 1e-5, 11)
        if closed:
            po = flatten(np.vstack([po.seeds[:-1], po.seeds[:1]]), po.lengths, f)
        spl = assign_splittings(po, f, "power", depth=depth)
        jacs = f.jacobian_along(po.points[:-1])

        def projector(b):
            q = np.linalg.qr(b)[0]
            return q @ np.swapaxes(q, -1, -2)

        for image, target in ((jacs @ spl.unstable[:-1], spl.unstable[1:]),
                              (jacs @ spl.stable[:-1], spl.stable[1:])):
            gap = np.linalg.norm(projector(image) - projector(target), ord=2, axis=(1, 2))
            assert gap.max() <= 1e-12

    def test_power_matches_windowed_iteration_at_default_depth(self):
        # the chained passes reproduce, bit for bit, per-index windows of
        # 50 pass steps on each side of j (cut off at the orbit's ends): a
        # window that starts at the seed has converged, to the last bit,
        # onto the chained basis by the time it reaches j
        f = PerturbedCatMap(0.02)
        po = generate(f, [0.3, 0.7], [4] * 125, 1e-5, 11)
        n, depth = po.n_steps, 50
        jacs = f.jacobian_along(po.points[:-1])
        seed = eigen_splitting(f.jacobian(po.points[0]))
        us, ss = [], []
        for j in range(n + 1):
            u = seed.unstable.copy()
            for t in range(max(0, j - depth), j):
                u = _orth_image(jacs[t], u, np.empty_like(u))
            s = seed.stable.copy()
            for t in range(min(n, j + depth) - 1, j - 1, -1):
                s = _orth_image(np.linalg.inv(jacs[t]), s, np.empty_like(s))
            us.append(u)
            ss.append(s)
        windowed = SplittingAssignment.from_bases(np.stack(us), np.stack(ss))
        chained = assign_splittings(po, f, "power", depth=depth)
        for name in ("unstable", "stable", "basis_inv"):
            assert np.array_equal(getattr(chained, name), getattr(windowed, name))


def _projectors(b):
    return b @ np.swapaxes(b, -1, -2)


def check_passes_against_qr(jacs, u0, s_end, compare):
    """Both passes keep orthonormal bases to 1e-13; with compare set, they
    span the QR reference's subspaces to 1e-12 in projector distance."""
    for ours, ref in ((push_forward(jacs, u0), push_forward_qr(jacs, u0)),
                      (pull_back(jacs, s_end), pull_back_qr(jacs, s_end))):
        assert ours.shape == ref.shape
        gram = np.swapaxes(ours, -1, -2) @ ours
        assert np.abs(gram - np.eye(ours.shape[-1])).max(initial=0.0) <= 1e-13
        if compare:
            gap = np.linalg.norm(_projectors(ours) - _projectors(ref), ord=2, axis=(1, 2))
            assert gap.max() <= 1e-12


class TestCocyclePasses:
    """push_forward/pull_back (Gram-Schmidt on J u, one batched inverse)
    against one QR factorisation, and one solve, per step."""

    @settings(max_examples=80, deadline=None)
    @given(dim=st.integers(2, 5), data=st.data())
    def test_affine_sequences(self, dim, data):
        # steps q diag(A_t, D_t) q^T with the singular values of A_t in
        # [c, c^2] and those of D_t in [1/c, 1], c = k^(1/3): the unstable
        # block dominates, and every Jacobian has condition number at most k
        du = data.draw(st.integers(0, dim), label="du")
        n = data.draw(st.integers(1, 60), label="steps")
        kappa = 10.0 ** data.draw(st.floats(0.0, 6.0), label="log10 condition")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        spread = kappa ** (1.0 / 3.0)

        def block(size, lo, hi):
            u = np.linalg.qr(rng.standard_normal((size, size)))[0]
            v = np.linalg.qr(rng.standard_normal((size, size)))[0]
            sv = np.exp(rng.uniform(np.log(lo), np.log(hi), size))
            if size > 1:
                sv[:2] = lo, hi
            return u @ np.diag(sv) @ v.T

        mats = np.zeros((n, dim, dim))
        for t in range(n):
            mats[t, :du, :du] = block(du, spread, spread * spread) if du else 0.0
            mats[t, du:, du:] = block(dim - du, 1.0 / spread, 1.0) if du < dim else 0.0
        mats = q @ mats @ q.T
        f = AffineSequenceSystem(mats, np.zeros((n, dim)), Splitting(q[:, :du], q[:, du:]),
                                 validate=False)
        jacs = f.jacobian_along(f.zero_pseudo_orbit().points[:-1])
        start = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        check_passes_against_qr(jacs, start[:, :du], start[:, du:], kappa <= 100.0)

    @settings(max_examples=40, deadline=None)
    @given(amplitude=st.floats(0.0, 0.05), lengths=st.lists(st.integers(1, 8), min_size=1,
                                                               max_size=40),
           seed=st.integers(0, 2**32 - 1))
    def test_perturbed_orbits(self, amplitude, lengths, seed):
        f = PerturbedCatMap(amplitude)
        po = generate(f, np.random.default_rng(seed).random(2), lengths, 1e-4, seed)
        sp = eigen_splitting(f.jacobian(po.points[0]))
        check_passes_against_qr(f.jacobian_along(po.points[:-1]), sp.unstable, sp.stable, True)
