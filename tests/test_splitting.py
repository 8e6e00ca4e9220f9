import numpy as np
import pytest

from bishadow.splitting import Splitting, eigen_splitting, min_norm, op_norm

from _oracles import (
    CAT_CONTRACTING,
    CAT_EXPANDING,
    assemble,
    block_decompose,
    box_equivalence_constant,
    box_norm,
    coords,
    project_stable,
    project_unstable,
)

CAT = np.array([[2.0, 1.0], [1.0, 1.0]])
AXES = Splitting(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))


def random_splitting(rng, dim, du):
    b = rng.standard_normal((dim, dim))
    while abs(np.linalg.det(b)) < 0.1:
        b = rng.standard_normal((dim, dim))
    return Splitting.from_bases(b[:, :du], b[:, du:])


class TestSplitting:
    def test_orthonormalized_on_construction(self):
        rng = np.random.default_rng(0)
        sp = random_splitting(rng, 4, 2)
        assert np.abs(sp.unstable.T @ sp.unstable - np.eye(2)).max() <= 1e-12
        assert np.abs(sp.stable.T @ sp.stable - np.eye(2)).max() <= 1e-12

    def test_rank_deficient_rejected(self):
        v = np.array([[1.0], [0.0]])
        with pytest.raises(ValueError, match="^rank-deficient splitting: subspaces are not "
                                             "transverse$"):
            Splitting(v, v)

    def test_non_orthonormal_rejected(self):
        # Splitting keeps its bases as given, so they must be orthonormal;
        # Splitting.from_bases orthonormalises the same columns first
        u, s = np.array([[2.0], [0.0]]), np.array([[1.0], [1.0]])
        with pytest.raises(ValueError, match="^unstable basis is not orthonormal; use "
                                             "Splitting.from_bases for a single pair$"):
            Splitting(u, s)
        sp = Splitting.from_bases(u, s)
        assert np.array_equal(sp.unstable, [[1.0], [0.0]])

    def test_coords_assemble_round_trip(self):
        rng = np.random.default_rng(1)
        sp = random_splitting(rng, 3, 1)
        v = rng.standard_normal(3)
        a, b = coords(sp, v)
        assert np.allclose(assemble(sp, a, b), v, atol=1e-12)
        assert np.allclose(project_unstable(sp, v) + project_stable(sp, v), v, atol=1e-12)


class TestBlockDecompose:
    def test_cat_eigen_splitting_diagonalizes(self):
        sp = eigen_splitting(CAT)
        blk = block_decompose(CAT, sp, sp)
        assert abs(blk.A[0, 0] - CAT_EXPANDING) <= 1e-10
        assert abs(blk.D[0, 0] - CAT_CONTRACTING) <= 1e-10
        assert op_norm(blk.B) <= 1e-12 and op_norm(blk.C) <= 1e-12

    def test_identity_any_splitting(self):
        rng = np.random.default_rng(2)
        sp = random_splitting(rng, 3, 2)
        blk = block_decompose(np.eye(3), sp, sp)
        assert np.allclose(blk.A, np.eye(2), atol=1e-12)
        assert np.allclose(blk.D, np.eye(1), atol=1e-12)
        assert op_norm(blk.B) <= 1e-12 and op_norm(blk.C) <= 1e-12

    def test_diagonal_already_block_form(self):
        blk = block_decompose(np.diag([2.0, 0.5]), AXES, AXES)
        assert blk.A[0, 0] == 2.0 and blk.D[0, 0] == 0.5
        assert op_norm(blk.B) == 0.0 and op_norm(blk.C) == 0.0

    def test_reassembly_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            du = int(rng.integers(1, dim))
            src = random_splitting(rng, dim, du)
            dst = random_splitting(rng, dim, du)
            j = rng.standard_normal((dim, dim)) + 3 * np.eye(dim)
            blk = block_decompose(j, src, dst)
            err = np.linalg.norm(blk.assembled() - j) / np.linalg.norm(j)
            assert err <= 1e-12

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            block_decompose(np.array([[1.0, 1.0], [1.0, 1.0]]), AXES, AXES)


class TestNorms:
    def test_min_norm_examples(self):
        assert min_norm(np.eye(3)) == 1.0
        assert abs(min_norm(CAT) - CAT_CONTRACTING) <= 1e-12
        assert min_norm(np.zeros((2, 0))) == np.inf

    def test_min_norm_duality(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = rng.standard_normal((3, 3)) + 2 * np.eye(3)
            assert abs(min_norm(m) * op_norm(np.linalg.inv(m)) - 1.0) <= 1e-12

    def test_op_norm_examples(self):
        assert op_norm(np.diag([2.0, 0.5])) == 2.0
        assert op_norm(np.zeros((2, 2))) == 0.0
        assert op_norm(np.zeros((0, 2))) == 0.0
        assert abs(op_norm(CAT) - CAT_EXPANDING) <= 1e-12

    def test_min_le_op(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = rng.standard_normal((int(rng.integers(1, 5)), int(rng.integers(1, 5))))
            assert min_norm(m) <= op_norm(m) + 1e-15


class TestBoxNorm:
    def test_single_component(self):
        sp = AXES
        v = np.array([3.0, 0.0])
        assert box_norm(v, sp) == 3.0

    def test_max_of_components(self):
        assert box_norm(np.array([3.0, 4.0]), AXES) == 4.0

    def test_homogeneity(self):
        rng = np.random.default_rng(6)
        sp = random_splitting(rng, 3, 1)
        v = rng.standard_normal(3)
        assert np.isclose(box_norm(2.0 * v, sp), 2.0 * box_norm(v, sp))

    def test_equivalence_constant_sampled(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            sp = random_splitting(rng, 3, 2)
            kappa = box_equivalence_constant(sp)
            for x in rng.standard_normal((1000, 3)):
                b = box_norm(x, sp)
                n = np.linalg.norm(x)
                assert n / kappa <= b * (1 + 1e-12)
                assert b <= kappa * n * (1 + 1e-12)

    def test_degenerate_fully_unstable_splitting(self):
        # dim_s = 0: empty blocks take their vacuous-norm conventions
        sp = Splitting(np.eye(2), np.zeros((2, 0)))
        blk = block_decompose(np.diag([2.0, 3.0]), sp, sp)
        assert blk.D.shape == (0, 0) and blk.B.shape == (2, 0)
        assert op_norm(blk.D) == 0.0 and op_norm(blk.B) == 0.0
        assert abs(min_norm(blk.A) - 2.0) <= 1e-14


class TestEigenSplitting:
    def test_cat_dims(self):
        sp = eigen_splitting(CAT)
        assert sp.dim_u == 1 and sp.dim_s == 1

    def test_complex_spectrum_rejected(self):
        rot = np.array([[0.0, -2.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            eigen_splitting(rot)

    def test_no_expansion_rejected(self):
        with pytest.raises(ValueError):
            eigen_splitting(np.eye(2))
