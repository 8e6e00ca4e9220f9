import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bishadow import pseudo_orbit
from bishadow.certification import pseudo_orbit_blocks
from bishadow.oracle import AffineSequenceSystem
from bishadow.pseudo_orbit import (
    SplittingAssignment,
    SplittingError,
    _W,
    _chain_starts,
    _complement,
    _orth_image,
    _orth_images,
    assign_splittings,
    flatten,
    generate,
    pull_back,
    push_forward,
)
from bishadow.splitting import Splitting, eigen_splitting
from bishadow.systems import AffineMap, PerturbedCatMap, ShiftedMap, SmoothMap, cat_map

from _oracles import flatten_per_step, iterate_orbit, pull_back_qr, push_forward_qr


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
        assert po.center == 2
        assert np.array_equal(po.points[po.center], po.seeds[1])

    def test_resegmenting_recovers_seeds_and_lengths(self):
        f = cat_map()
        po = generate(f, [0.31, 0.77], [3, 1, 4, 2], 1e-4, 6)
        assert np.array_equal(po.points[po.offsets[:-1]], po.seeds[:-1])
        assert np.array_equal(po.points[po.offsets[-1]], po.seeds[-1])
        assert np.array_equal(np.diff(po.offsets), po.lengths)
        for i in range(po.i_min, po.i_max + 1):
            assert np.array_equal(po.points[po.offsets[i - po.i_min]], po.seeds[i - po.i_min])

    def test_window_round_trip(self):
        f = cat_map()
        po = generate(f, [0.1, 0.2], [2] * 7, 1e-4, 3, i_min=-3)
        w = po.window(-1, 1)
        assert w.n_segments == 3 and w.i_min == -1
        assert np.array_equal(w.seeds, po.seeds[2:6])
        lo, hi = po.offsets[[-1 - po.i_min, 2 - po.i_min]]
        assert np.array_equal(w.points, po.points[lo: hi + 1])
        assert np.array_equal(w.residuals, po.residuals[2:5])


def walked_system(kind, n_steps, rng):
    """A map of each kind flatten must match the per-step walk on."""
    if kind == "cat":
        return cat_map()
    if kind == "perturbed":
        return PerturbedCatMap(0.03)
    if kind == "shifted":
        return ShiftedMap(PerturbedCatMap(0.02), [1e-3, -2e-3])
    if kind == "sequence":
        mats = rng.standard_normal((n_steps, 3, 3)) + 2.0 * np.eye(3)
        axes = Splitting(np.eye(3)[:, :1], np.eye(3)[:, 1:])
        return AffineSequenceSystem(mats, rng.standard_normal((n_steps, 3)), axes, validate=False)
    return AffineMap([[1.2, 0.3, -0.4], [0.1, 0.9, 0.2], [-0.5, 0.4, 1.1]], [0.1, 0.0, -0.2])


class CountingMap(SmoothMap):
    """A map that counts its ``along`` calls."""

    def __init__(self, base):
        self.base, self.phase, self.calls = base, base.phase, 0

    def along(self, x, steps):
        self.calls += 1
        return self.base.along(x, steps)


class TestBatchedFlatten:
    @settings(max_examples=80, deadline=None)
    @given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=60),
           i_min=st.integers(-100, 100), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["cat", "perturbed", "shifted", "sequence", "affine3"]))
    def test_equals_per_step_walk(self, lengths, i_min, seed, kind):
        rng = np.random.default_rng(seed)
        f = walked_system(kind, sum(lengths), rng)
        seeds = rng.uniform(-1.0, 2.0, (len(lengths) + 1, f.phase.dim))
        po = flatten(seeds, lengths, f, i_min=i_min)
        ref = flatten_per_step(seeds, lengths, f, i_min=i_min)
        assert po.phase == ref.phase and po.i_min == ref.i_min
        assert np.array_equal(po.lengths, ref.lengths) and np.array_equal(po.offsets, ref.offsets)
        if kind == "affine3":
            # a batch x @ M.T may round a general 3-d matrix product differently
            scale = np.abs(ref.points).max()
            assert np.abs(po.points - ref.points).max() <= 1e-12 * scale
            assert np.abs(po.residuals - ref.residuals).max() <= 1e-12 * scale
            assert np.array_equal(po.seeds, ref.seeds)
        else:
            assert np.array_equal(po.points, ref.points)
            assert np.array_equal(po.residuals, ref.residuals)

    @pytest.mark.parametrize("lengths, calls", [([4] * 2500, 4), ([1, 3, 3, 1, 3] * 50, 4)])
    def test_one_map_call_per_step_of_a_length(self, lengths, calls):
        f = CountingMap(cat_map())
        seeds = np.random.default_rng(0).random((len(lengths) + 1, 2))
        po = flatten(seeds, lengths, f)
        assert f.calls == calls
        assert np.array_equal(po.points, flatten_per_step(seeds, lengths, cat_map()).points)


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
        c = generate(f, [0.3, 0.6], [2, 2, 2], 1e-4, 43)
        for name in ("seeds", "lengths", "points", "residuals"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert not np.array_equal(a.points, c.points)

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
        for lengths, message in (([], "at least one segment"), ([2, 0], "must be positive"),
                                 ([2.7], "must be integers"), ([3, np.nan], "must be integers")):
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
        # generate walks only to draw its seeds and returns flatten of them,
        # so flatten of its seeds must give the same bits
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
        assert po.phase == again.phase
        for name in ("seeds", "lengths", "points", "residuals", "offsets"):
            assert np.array_equal(getattr(po, name), getattr(again, name))
        assert po.i_min == again.i_min


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

    def test_eigen_checks_every_step(self):
        # step 1 swaps the expanding and contracting axes of step 0, which
        # no check of step 0's Jacobian alone can see
        axes = eigen_splitting(np.diag([2.0, 0.5]))
        swapped = AffineSequenceSystem([np.diag([2.0, 0.5]), np.diag([0.5, 2.0])],
                                       np.zeros((2, 2)), axes, validate=False)
        with pytest.raises(SplittingError, match="constant derivative"):
            assign_splittings(flatten(np.zeros((2, 2)), [2], swapped), swapped, "eigen")
        same = AffineSequenceSystem([np.diag([2.0, 0.5])] * 2, np.zeros((2, 2)), axes)
        spl = assign_splittings(flatten(np.zeros((2, 2)), [2], same), same, "eigen")
        assert all(np.allclose(spl[j].basis, axes.basis) for j in range(3))

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

    def test_power_names_the_first_narrow_index(self):
        # a turn by pi/2 - t after a hyperbolic step, on an open orbit: the
        # passes meet at angle about 4t at index 0 and t at indices 1 and 2,
        # so with t = 5e-7 only indices 1 and 2 fall below power's 1e-6, and
        # none below the transversality check's 1e-12
        hyperbolic = np.diag([2.0, 0.5])
        a = np.pi / 2 - 5e-7
        turn = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        f = AffineSequenceSystem([hyperbolic, turn], np.zeros((2, 2)),
                                 eigen_splitting(hyperbolic), validate=False)
        with pytest.raises(SplittingError,
                           match="^power iteration failed to separate subspaces at index 1$"):
            assign_splittings(flatten(np.array([[0.0, 0.0], [1.0, 0.0]]), [2], f), f, "power")

    def test_power_takes_one_svd_of_its_bases(self, monkeypatch):
        f = PerturbedCatMap(0.02)
        po = generate(f, [0.37, 0.58], [4] * 6, 1e-6, 2)
        sizes = []
        real = np.linalg.svd

        def counting(a, *args, **kwargs):
            sizes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assign_splittings(po, f, "power")
        assert sizes.count((po.n_steps + 1, 2, 2)) == 1

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("step", [np.zeros((2, 2)), [[0.0, 1.0], [0.0, 1.0]],
                                      [[0.0, 0.0], [1.0, 1.0]]], ids=["both", "forward", "back"])
    def test_power_names_the_step_that_annihilates_a_pass(self, closed, step):
        # the step sends the unstable pass's column to zero, the transposes'
        # pass's column, or both; the index is the step's, also when a closed
        # orbit's passes wrap around the cycle
        hyperbolic = np.diag([2.0, 0.5])
        f = AffineSequenceSystem([hyperbolic, hyperbolic, step, hyperbolic],
                                 np.zeros((4, 2)), eigen_splitting(hyperbolic), validate=False)
        po = flatten(np.array([[0.0, 0.0], [0.0, 0.0] if closed else [1.0, 1.0]]), [4], f)
        assert po.closed == closed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SplittingError, match="collapsed to zero at index 2$"):
                assign_splittings(po, f, "power")

    def test_power_passes_a_singular_step_that_keeps_the_passes(self):
        # [[1, 1], [1, 1]] is singular but sends neither pass's column to
        # zero: no Jacobian is inverted, so the bases are finite, and the
        # blocks still refuse the singular derivative
        hyperbolic = np.diag([2.0, 0.5])
        f = AffineSequenceSystem([hyperbolic, np.ones((2, 2)), hyperbolic], np.zeros((3, 2)),
                                 eigen_splitting(hyperbolic), validate=False)
        po = flatten(np.array([[0.0, 0.0], [1.0, 1.0]]), [3], f)
        spl = assign_splittings(po, f, "power")
        assert np.isfinite(spl.basis_inv).all()
        with pytest.raises(ValueError, match="singular derivative at index 1 "):
            pseudo_orbit_blocks(po, spl, f)

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
        jacs = f.jacobian_along(po.points[:-1], np.arange(po.n_steps))

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
        jacs = f.jacobian_along(po.points[:-1], np.arange(po.n_steps))
        seed = eigen_splitting(f.jacobian(po.points[0]))
        us, ss = [], []
        for j in range(n + 1):
            u = seed.unstable.copy()
            for t in range(max(0, j - depth), j):
                u = _orth_image(jacs[t], u, np.empty_like(u))
            c = _complement(seed.stable)
            for t in range(min(n, j + depth) - 1, j - 1, -1):
                c = _orth_image(jacs[t].T, c, np.empty_like(c))
            us.append(u)
            ss.append(_complement(c))
        windowed = SplittingAssignment.from_bases(np.stack(us), np.stack(ss))
        chained = assign_splittings(po, f, "power", depth=depth)
        for name in ("unstable", "stable", "basis_inv"):
            assert np.array_equal(getattr(chained, name), getattr(windowed, name))


def dominated_jacobians(rng, dim, du, n, kappa):
    """The n Jacobians of an AffineSequenceSystem with steps q diag(A_t, D_t) q^T,
    the singular values of A_t in [c, c^2] and those of D_t in [1/c, 1],
    c = kappa^(1/3): the unstable block dominates, and every Jacobian has
    condition number at most kappa."""
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
    return f.jacobian_along(f.zero_pseudo_orbit().points[:-1], np.arange(f.n_steps))


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
    """push_forward/pull_back (Gram-Schmidt on J u, and on J^T for the
    complements) against one QR factorisation, and one solve, per step."""

    @settings(max_examples=80, deadline=None)
    @given(dim=st.integers(2, 5), data=st.data())
    def test_affine_sequences(self, dim, data):
        du = data.draw(st.integers(0, dim), label="du")
        n = data.draw(st.integers(1, 60), label="steps")
        kappa = 10.0 ** data.draw(st.floats(0.0, 6.0), label="log10 condition")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
        jacs = dominated_jacobians(rng, dim, du, n, kappa)
        start = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        check_passes_against_qr(jacs, start[:, :du], start[:, du:], kappa <= 100.0)

    @settings(max_examples=40, deadline=None)
    @given(amplitude=st.floats(0.0, 0.05), lengths=st.lists(st.integers(1, 8), min_size=1,
                                                               max_size=40),
           seed=st.integers(0, 2**32 - 1), wrap=st.none() | st.integers(0, 60))
    def test_perturbed_orbits(self, amplitude, lengths, seed, wrap):
        # wrap is None for an open orbit; otherwise the orbit is closed and
        # the passes run over its Jacobians wrapped around the cycle, wrap
        # steps early on each side, as power splittings run them
        f = PerturbedCatMap(amplitude)
        po = generate(f, np.random.default_rng(seed).random(2), lengths, 1e-4, seed)
        if wrap is not None:
            po = flatten(np.vstack([po.seeds[:-1], po.seeds[:1]]), lengths, f)
        n, warm = po.n_steps, wrap or 0
        sp = eigen_splitting(f.jacobian(po.points[0]))
        jacs = f.jacobian_along(po.points[:-1], np.arange(n))[np.arange(-warm, n + warm) % n]
        check_passes_against_qr(jacs, sp.unstable, sp.stable, True)


def one_chain_forward(jacs, u0):
    """A forward pass as one chain of _orth_image steps from u0."""
    u = [np.asarray(u0, dtype=float)]
    for jac in jacs:
        u.append(_orth_image(jac, u[-1], np.empty_like(u[-1])))
    return np.stack(u)


def one_chain_back(jacs, s_end):
    """pull_back as one chain: the complements of a one-chain pass of the
    transposes from index T down, started from the complement of s_end."""
    return _complement(one_chain_forward(np.swapaxes(jacs, -1, -2)[::-1], _complement(s_end))[::-1])


def segment_lengths(steps, segment):
    return [segment] * (steps // segment) + ([steps % segment] if steps % segment else [])


class TestChunkedPass:
    """A pass of more than 4W steps runs as chains that advance together;
    it must give the one-chain pass's bases, or fall back to that pass."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 5), data=st.data(), transposed=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_stacked_step_has_the_single_steps_bits(self, n, data, transposed, seed):
        # the chains' step against _orth_image on each matrix, also on the
        # transposed views the stable pass reads
        k = data.draw(st.integers(0, n), label="k")
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((50, n, n))
        if transposed:
            m = np.swapaxes(m, -1, -2)
        b = np.linalg.qr(rng.standard_normal((50, n, n)))[0][..., :k]
        ours = _orth_images(m, b, np.empty((50, n, k)))
        assert np.array_equal(ours, [_orth_image(mc, bc, np.empty((n, k))) for mc, bc in zip(m, b)])

    @settings(max_examples=30, deadline=None)
    @given(amplitude=st.floats(0.0, 0.05), steps=st.integers(130, 700),
           segment=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           wrap=st.none() | st.integers(0, 60))
    def test_perturbed_orbits_match_one_chain_bitwise(self, amplitude, steps, segment, seed,
                                                      wrap):
        # wrap is None for an open orbit; otherwise the orbit is closed and
        # the passes run over its Jacobians wrapped around the cycle, wrap
        # steps early, as power splittings run them
        f = PerturbedCatMap(amplitude)
        lengths = segment_lengths(steps, segment)
        po = generate(f, np.random.default_rng(seed).random(2), lengths, 1e-4, seed)
        if wrap is not None:
            po = flatten(np.vstack([po.seeds[:-1], po.seeds[:1]]), lengths, f)
        warm = wrap or 0
        sp = eigen_splitting(f.jacobian(po.points[0]))
        jacs = f.jacobian_along(po.points[:-1], np.arange(steps))
        forward, back = jacs[np.arange(-warm, steps) % steps], jacs[np.arange(steps + warm) % steps]
        assert np.array_equal(push_forward(forward, sp.unstable),
                              one_chain_forward(forward, sp.unstable))
        assert np.array_equal(pull_back(back, sp.stable), one_chain_back(back, sp.stable))

    @settings(max_examples=40, deadline=None)
    @given(du=st.integers(1, 2), steps=st.integers(130, 400), stacked=st.booleans(),
           log_kappa=st.floats(0.0, 6.0), seed=st.integers(0, 2**32 - 1))
    @example(du=2, steps=199, stacked=False, log_kappa=3.0, seed=4_294_967_294)
    def test_affine_sequences_match_one_chain(self, du, steps, stacked, log_kappa, seed):
        # weakly dominated steps fail a seam and fall back to one chain; the
        # others pass every seam bit for bit, so both give the reference's
        # bits.  A seam off by 6e-14 in the example grows to 2e-13 in the
        # next kept step.  stacked seeds start each chain from its own random
        # basis, as refinement starts them from its input splitting
        rng = np.random.default_rng(seed)
        jacs = dominated_jacobians(rng, 3, du, steps, 10.0 ** log_kappa)
        bases = np.linalg.qr(rng.standard_normal((steps + 1, 3, 3)))[0]
        seeds, first, last = (bases, bases[0], bases[-1]) if stacked else (bases[0],) * 3
        pairs = ((push_forward(jacs, seeds[..., :du]), one_chain_forward(jacs, first[:, :du])),
                 (pull_back(jacs, seeds[..., du:]), one_chain_back(jacs, last[:, du:])))
        for ours, ref in pairs:
            assert ours.shape == ref.shape
            assert np.array_equal(ours, ref)

    def test_no_dominated_splitting_falls_back_to_one_chain(self):
        # a constant rotation by an irrational angle never forgets its start,
        # so every seam fails and both passes run as one chain
        angle = np.sqrt(2.0)
        rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        jacs = np.broadcast_to(rotation, (300, 2, 2))
        u0, s_end = np.array([[1.0], [0.0]]), np.array([[0.6], [0.8]])
        assert np.array_equal(push_forward(jacs, u0), one_chain_forward(jacs, u0))
        assert np.array_equal(pull_back(jacs, s_end), one_chain_back(jacs, s_end))

    @pytest.mark.parametrize("chain", [1, 4])
    def test_a_seed_killed_in_its_warm_up_falls_back(self, chain):
        # chains start from (1, 1), which one hyperbolic step carries to
        # (2, 0.5); the next step sends that to zero but keeps e_1, where the
        # chain before has converged, so only the fresh chain collapses and
        # the one-chain pass stays finite
        hyperbolic = np.diag([2.0, 0.5])
        kill = np.array([[0.5, -2.0], [0.5, -2.0]])
        jacs = np.broadcast_to(hyperbolic, (300, 2, 2)).copy()
        jacs[chain * _W + 1] = kill
        seeds = np.broadcast_to(np.array([[1.0], [1.0]]) / np.sqrt(2.0), (301, 2, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = push_forward(jacs, seeds)
        assert np.isfinite(ours).all()
        assert np.array_equal(ours, one_chain_forward(jacs, seeds[0]))

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("step", [np.zeros((2, 2)), [[0.0, 1.0], [0.0, 1.0]],
                                      [[0.0, 0.0], [1.0, 1.0]]], ids=["both", "forward", "back"])
    @pytest.mark.parametrize("index", [10, 3 * _W + 5, 4 * _W - 1, 300, 499])
    def test_collapse_names_the_one_chain_index(self, closed, step, index):
        # the step lies in chain 0's first half, in a later chain's warm-up
        # (and the kept run of the chain before it), at a seam, and at the
        # end; each pass runs forward or backward through it
        hyperbolic = np.diag([2.0, 0.5])
        mats = np.broadcast_to(hyperbolic, (500, 2, 2)).copy()
        mats[index] = step
        f = AffineSequenceSystem(mats, np.zeros((500, 2)), eigen_splitting(hyperbolic),
                                 validate=False)
        po = flatten(np.array([[0.0, 0.0], [0.0, 0.0] if closed else [1.0, 1.0]]), [500], f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SplittingError, match=f"collapsed to zero at index {index}$"):
                assign_splittings(po, f, "power")

    def test_step_counts(self, monkeypatch):
        # a long power assignment makes 2W stacked steps per pass and no
        # single step; a short one only single steps
        counts = {}
        for name in ("_orth_image", "_orth_images"):
            def counted(*args, _name=name, _call=getattr(pseudo_orbit, name)):
                counts[_name] = counts.get(_name, 0) + 1
                return _call(*args)
            monkeypatch.setattr(pseudo_orbit, name, counted)

        def calls(steps):
            f = PerturbedCatMap(0.02)
            po = generate(f, [0.3, 0.7], segment_lengths(steps, 4), 1e-5, 7)
            counts.clear()
            assign_splittings(po, f, "power")
            return counts.get("_orth_image", 0), counts.get("_orth_images", 0)

        single, stacked = calls(10**4)
        assert single == 0 and 0 < stacked <= 2 * 2 * _W
        single, stacked = calls(18)
        assert single == 2 * 18 and stacked == 0
        assert len(_chain_starts(4 * _W)) == 1 < len(_chain_starts(4 * _W + 1))
