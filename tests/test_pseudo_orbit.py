import numpy as np
import pytest

from bishadow.pseudo_orbit import (
    SegmentedPseudoOrbit,
    SplittingError,
    assign_splittings,
    flatten,
    generate,
)
from bishadow.splitting import eigen_splitting
from bishadow.systems import PerturbedCatMap, cat_map


def orbit_seeds(f, x0, lengths):
    """Seeds lying on a genuine orbit (zero residuals)."""
    seeds = [f.phase.canon(np.asarray(x0, float))]
    for n in lengths:
        seeds.append(f.iterate(seeds[-1], int(n)))
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
        for seg in po.segments():
            for t in range(seg.length - 1):
                assert np.array_equal(f(seg.points[t]), seg.points[t + 1])

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
        for seg in po.segments():
            assert np.array_equal(seg.points[0], po.seeds[seg.index - po.i_min])

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


class TestSerialization:
    def test_json_round_trip_bitstable(self):
        f = PerturbedCatMap(0.01)
        po = generate(f, [0.123456789, 0.987654321], [3, 2], 1e-4, 9)
        back = SegmentedPseudoOrbit.from_json(po.to_json())
        assert np.array_equal(back.points, po.points)
        assert np.array_equal(back.seeds, po.seeds)
        assert np.array_equal(back.residuals, po.residuals)
        assert back.i_min == po.i_min


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
        assert all(spl[j] is sp for j in range(len(spl)))

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
        # with an open end: the windows see the same Jacobians either way
        f = PerturbedCatMap(0.01)
        cycle = [[0.75, 0.5], [0.0, 0.25], [0.25, 0.25]]
        closed = flatten(np.array(cycle + cycle[:1]), [1] * 3, f)
        open_end = flatten(np.array(cycle * 5 + [[0.8, 0.5]]), [1] * 15, f)
        spl_closed = assign_splittings(closed, f, "power", depth=4)
        spl_open = assign_splittings(open_end, f, "power", depth=4)
        assert np.array_equal(spl_closed[0].basis, spl_closed[3].basis)
        for j in range(4):
            assert np.array_equal(spl_closed[j].basis, spl_open[6 + j].basis)
        assert not np.allclose(spl_open[0].basis, spl_open[3].basis, atol=1e-9)
