import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bishadow.certification import certify_pseudo_orbit
from bishadow.pseudo_orbit import assign_splittings, generate
from bishadow.shadowing import make_solver_config
from bishadow.systems import (
    AffineMap,
    PerturbedCatMap,
    Phase,
    ShiftedMap,
    SystemBounds,
    TorusLinearMap,
    cat_map,
    map_distance,
    system_bounds,
)

from _oracles import finite_difference_jacobian, random_point

TORUS = Phase("torus", 2)


class TestPhase:
    def test_canon_idempotent(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-3, 3, size=(200, 2))
        once = TORUS.canon(pts)
        assert np.array_equal(TORUS.canon(once), once)
        assert np.all(once >= 0) and np.all(once < 1)

    def test_canon_edge_rounding(self):
        # tiny negative values round to 1.0 under mod; must land back at 0
        assert TORUS.canon(np.array([-1e-18, 0.5]))[0] == 0.0

    def test_wrap_half_open_interval(self):
        w = TORUS.wrap(np.array([0.5, -0.5]))
        assert w[0] == 0.5 and w[1] == 0.5

    def test_exp_translation_mod_one(self):
        q = TORUS.exp([0.9, 0.9], [0.2, 0.2])
        assert np.allclose(q, [0.1, 0.1], atol=1e-12)

    def test_exp_zero_vector(self):
        p = np.array([0.3, 0.7])
        assert np.array_equal(TORUS.exp(p, [0.0, 0.0]), p)

    def test_log_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = rng.random(2)
            v = rng.uniform(-1, 1, 2)
            v *= 0.25 * rng.random() / np.linalg.norm(v)
            assert np.abs(TORUS.wrap(TORUS.exp(p, v) - p) - v).max() <= 1e-14

    def test_exp_of_log_returns_target(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p, q = rng.random(2), rng.random(2)
            if TORUS.distance(p, q) >= 0.5:
                continue
            assert TORUS.distance(TORUS.exp(p, TORUS.wrap(q - p)), q) <= 1e-14

    def test_distance_examples(self):
        assert TORUS.distance([0.3, 0.4], [0.3, 0.4]) == 0.0
        assert np.isclose(TORUS.distance([0.95, 0.0], [0.05, 0.0]), 0.1)
        eu = Phase("euclidean", 2)
        assert eu.distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_distance_metric_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p, q, r = rng.random((3, 2))
            assert np.isclose(TORUS.distance(p, q), TORUS.distance(q, p))
            assert TORUS.distance(p, r) <= TORUS.distance(p, q) + TORUS.distance(q, r) + 1e-12

    def test_exp_norm_matches_distance_below_injectivity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = rng.random(2)
            v = rng.uniform(-1, 1, 2)
            v *= 0.49 * rng.random() / np.linalg.norm(v)
            assert np.isclose(TORUS.distance(p, TORUS.exp(p, v)), np.linalg.norm(v))

    def test_dim_guard(self):
        with pytest.raises(ValueError):
            Phase("torus", 1)


class TestShippedSystems:
    def test_cat_map_fixed_point(self):
        f = cat_map()
        assert np.array_equal(f([0.0, 0.0]), [0.0, 0.0])

    def test_cat_map_half_half(self):
        f = cat_map()
        assert np.allclose(f([0.5, 0.5]), [0.5, 0.0], atol=1e-15)

    def test_cat_map_jacobian_constant(self):
        f = cat_map()
        rng = np.random.default_rng(0)
        j = f.jacobian(rng.random((5, 2)))
        assert np.array_equal(j[0], [[2.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(j[3], j[0])

    def test_perturbed_zero_amplitude_matches_cat(self):
        f = PerturbedCatMap(0.0)
        rng = np.random.default_rng(2)
        pts = rng.random((20, 2))
        assert np.allclose(f(pts), cat_map()(pts))
        assert np.array_equal(f.jacobian(pts[0]), [[2.0, 1.0], [1.0, 1.0]])

    @pytest.mark.parametrize("make", [
        cat_map,
        lambda: PerturbedCatMap(0.02),
        lambda: AffineMap(np.diag([2.0, 0.5])),
        lambda: ShiftedMap(cat_map(), [0.01, 0.0]),
    ])
    def test_jacobian_matches_finite_differences(self, make):
        f = make()
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = random_point(f.phase, rng)
            jac = f.jacobian(p)
            fd = finite_difference_jacobian(f, p)
            assert np.abs(jac - fd).max() <= 1e-6 * max(1.0, np.abs(jac).max())

    def test_forward_commutes_with_canonicalization(self):
        f = PerturbedCatMap(0.05)
        rng = np.random.default_rng(9)
        pts = rng.uniform(-2, 2, size=(50, 2))
        assert np.allclose(f(pts), f(f.phase.canon(pts)), atol=1e-12)

    def test_affine_sequence_hooks(self):
        # an autonomous map ignores the steps it is handed, for one step or a
        # step per row, and so does a shift of it
        rng = np.random.default_rng(3)
        x = rng.random((5, 2))
        for f in (cat_map(), PerturbedCatMap(0.05), ShiftedMap(cat_map(), [1e-3, 0.0])):
            for steps in (3, np.array([0, 4, 1, 1, 7])):
                assert np.array_equal(f.along(x, steps), f(x))
                assert np.array_equal(f.jacobian_along(x, steps), f.jacobian(x))
                assert np.array_equal(f.along(x[2], steps), f(x[2]))

    @pytest.mark.parametrize("matrix, message", [
        ([[1, 1], [1, 1]], "nonzero determinant"),
        ([[2, 0], [0, 0.5]], "integer matrix"),
    ])
    def test_torus_matrix_integer_with_nonzero_determinant(self, matrix, message):
        # a non-unimodular integer matrix is an endomorphism of the torus
        f = TorusLinearMap([[3, 1], [1, 1]])
        assert np.array_equal(f([0.5, 0.25]), [0.75, 0.75])
        assert f.derivative_bounds() == pytest.approx((2.0 + np.sqrt(2.0), 0.0))
        with pytest.raises(ValueError, match=message):
            TorusLinearMap(matrix)

    def test_affine_rows_do_not_depend_on_the_batch(self):
        # one BLAS product x @ M.T rounds some rows of this matrix by their
        # place in the batch; the sum of columns rounds each row alone
        f = AffineMap([[2.3, 0.7], [0.45, 0.6]], [0.1, -0.3])
        rng = np.random.default_rng(4)
        x = rng.uniform(-1e3, 1e3, (2000, 2))
        batch = f(x)
        assert all(batch[r].tobytes() == f(x[r]).tobytes() for r in range(len(x)))
        for start in (0, 17, 1024):
            assert f(x[start:start + 300]).tobytes() == batch[start:start + 300].tobytes()

    @pytest.mark.parametrize("matrix", [np.diag([2.0, 0.0]), [1.0, 2.0, 3.0], np.ones((2, 3))])
    def test_affine_matrix_square_and_invertible(self, matrix):
        with pytest.raises(ValueError, match="square|invertible"):
            AffineMap(matrix)


class TestBoundsAndSupDistance:
    def test_sup_distance_zero_and_shift(self):
        f = cat_map()
        assert map_distance(f, f) == 0.0
        g = ShiftedMap(f, [0.001, 0.0])
        assert np.isclose(map_distance(f, g), 0.001)

    def test_sup_distance_euclidean_affine(self):
        f = AffineMap(np.diag([2.0, 0.5]))
        g = AffineMap(np.diag([2.0, 0.5]), [1e-3, 0.0])
        assert np.isclose(map_distance(f, g), 1e-3)

    def test_map_distance_without_closed_form_raises(self):
        # the message names the pairs that have a closed form, and offers no
        # bound that no function takes
        with pytest.raises(ValueError, match=r"no closed-form sup distance between TorusLinearMap "
                           r"and TorusLinearMap; one exists only for g the same map as f or a "
                           r"ShiftedMap of it, the cat map or PerturbedCatMap against PerturbedCatMap, and affine "
                           r"maps with equal matrices$"):
            map_distance(cat_map(), TorusLinearMap([[1, 1], [1, 2]]))

    @pytest.mark.parametrize("make", [
        cat_map,
        lambda: TorusLinearMap([[3, 1], [1, 1]]),
        lambda: AffineMap([[2.0, 0.3], [0.1, 0.5]], [0.2, -0.1]),
    ])
    def test_shift_of_a_separately_built_equal_map(self, make):
        # the same map built twice is one map: f and g's base differ as objects only
        s = np.array([3e-7, -4e-7])
        assert map_distance(make(), make()) == 0.0
        assert map_distance(make(), ShiftedMap(make(), s)) == float(np.linalg.norm(s))

    def test_shift_of_a_different_map_raises(self):
        for f, base in [(TorusLinearMap([[3, 1], [1, 1]]), TorusLinearMap([[2, 1], [1, 1]])),
                        (PerturbedCatMap(0.02), PerturbedCatMap(0.03)),
                        (AffineMap(np.eye(2) * 2.0), AffineMap(np.eye(2) * 2.0, [1e-3, 0.0]))]:
            with pytest.raises(ValueError, match="no closed-form sup distance"):
                map_distance(f, ShiftedMap(base, [1e-6, 0.0]))


class TestMapsWithoutAnalyticBounds:
    # past |c| = (3 - sqrt 5) / 2 Weyl's inequality gives no bound on ||Df^-1||
    f = PerturbedCatMap(0.5)

    def test_system_bounds_raises(self):
        assert self.f.derivative_bounds() is None
        with pytest.raises(ValueError, match="bounds="):
            system_bounds(self.f)
        po = generate(self.f, [0.2, 0.6], [2, 2], 1e-4, 0)
        with pytest.raises(ValueError, match="bounds="):
            make_solver_config(po, self.f, lam=0.4)

    def test_solver_config_takes_given_bounds(self):
        po = generate(self.f, [0.2, 0.6], [2, 2], 1e-4, 0)
        cfg = make_solver_config(po, self.f, lam=0.4, bounds=SystemBounds(4.0, 3.2, "estimated"))
        assert (cfg.R, cfg.L, cfg.kind) == (4.0, 3.2, "estimated")
        assert cfg.C == 4.0 ** 2


AMPLITUDES = st.floats(0.0, 0.35)
# a dense grid of T^2 that holds the extremes of cos at 0 and 1/2
DENSE = np.stack(np.meshgrid(*[np.arange(200) / 200] * 2, indexing="ij"), axis=-1).reshape(-1, 2)


class TestAnalyticBounds:
    """The analytic constants against dense samples of what they bound."""

    @settings(max_examples=20, deadline=None)
    @given(amp=AMPLITUDES)
    def test_weyl_bound_dominates_sampled_singular_values(self, amp):
        f = PerturbedCatMap(amp)
        R, L = f.derivative_bounds()
        s = np.linalg.svd(f.jacobian(DENSE), compute_uv=False)
        assert R >= s[:, 0].max() and R >= 1.0 / s[:, -1].min()
        assert L == 2.0 * np.pi * amp
        assert system_bounds(f).kind == ("bound" if amp else "exact")

    @settings(max_examples=20, deadline=None)
    @given(amp=AMPLITUDES, seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-8, 1.0))
    def test_lipschitz_constant_holds_on_random_pairs(self, amp, seed, scale):
        f = PerturbedCatMap(amp)
        L = f.derivative_bounds()[1]
        rng = np.random.default_rng(seed)
        x = rng.random((500, 2))
        y = f.phase.canon(x + scale * rng.standard_normal((500, 2)))
        gap = np.linalg.svd(f.jacobian(x) - f.jacobian(y), compute_uv=False)[:, 0]
        # 1e-15 absorbs the roundoff of the cosines
        assert np.all(gap <= L * f.phase.distance(x, y) + 1e-15)

    @settings(max_examples=20, deadline=None)
    @given(c=AMPLITUDES, dc=st.floats(-0.05, 0.05), cat=st.booleans(), wide=st.booleans())
    def test_exact_map_distance_dominates_samples(self, c, dc, cat, wide):
        # wide amplitude gaps reach past |c - c'| = pi, where wrapping caps each component at 1/2
        dc *= 200.0 if wide else 1.0
        f = cat_map() if cat else PerturbedCatMap(c)
        g = PerturbedCatMap((0.0 if cat else c) + dc)
        exact = map_distance(f, g)
        sampled = f.phase.distance(f(DENSE), g(DENSE))
        # 1e-15 absorbs the roundoff of canonicalizing f(x) and g(x)
        assert sampled.max() <= exact + 1e-15
        if not wide:
            quarter = np.array([0.25, 0.25])
            assert abs(f.phase.distance(f(quarter), g(quarter)) - exact) <= 1e-15

    @settings(max_examples=20, deadline=None)
    @given(shift=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
    def test_exact_shift_distance_dominates_samples(self, shift):
        f = PerturbedCatMap(0.1)
        exact = map_distance(f, ShiftedMap(f, shift))
        sampled = f.phase.distance(f(DENSE), ShiftedMap(f, shift)(DENSE))
        assert sampled.max() <= exact + 1e-15

    @given(x=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2))
    def test_wrap_and_canon_ranges(self, x):
        w, c = TORUS.wrap(x), TORUS.canon(x)
        assert np.all((-0.5 < w) & (w <= 0.5))
        assert np.all((0.0 <= c) & (c < 1.0))

    @settings(max_examples=25, deadline=None)
    @given(amp=st.floats(0.0, 0.05), lengths=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           jump=st.floats(0.0, 1e-2), seed=st.integers(0, 2**32 - 1),
           lams=st.lists(st.floats(0.05, 0.95), min_size=2, max_size=2))
    def test_certificate_monotone_in_lambda(self, amp, lengths, jump, seed, lams):
        f = PerturbedCatMap(amp)
        po = generate(f, np.random.default_rng(seed).random(2), lengths, jump, seed)
        spl = assign_splittings(po, f, "power")
        lo, hi = sorted(lams)
        passed = [certify_pseudo_orbit(po, spl, f, lam, 1e-6, 1e-2).passed for lam in (lo, hi)]
        assert passed[0] <= passed[1]
