import numpy as np
import pytest

from bishadow.adapted import (
    InfeasiblePairError,
    check_pair,
    is_balance_sequence,
    rescaled_blocks,
    scale_factors,
    verify_well_adapted,
    well_adapted_sequence,
)
from bishadow.splitting import BlockJacobian, Splitting, min_norm, op_norm

from _oracles import (
    feasible_by_interval,
    feasible_by_lp,
    quotient_log_bounds,
    random_quasi_hyperbolic_pair,
)

AXES = Splitting(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))


class TestCheckPair:
    def test_constant_hyperbolic(self):
        res = check_pair([0.3, 0.3], [3.0, 3.0], 0.5, mode="hyperbolic")
        assert res.ok

    def test_quasi_example(self):
        # direct arithmetic: cumulative products and tail products by hand
        a, b = [0.2, 0.8], [1.25, 5.0]
        assert np.allclose(np.cumprod(a), [0.2, 0.16])
        assert np.cumprod(a)[0] <= 0.45 and np.cumprod(a)[1] <= 0.45 ** 2
        tails = [1.25 * 5.0, 5.0]
        assert tails[0] >= 0.45 ** -2 and tails[1] >= 0.45 ** -1
        assert max(np.array(a) / np.array(b)) <= 0.45 ** 2
        assert check_pair(a, b, 0.45, mode="quasi_hyperbolic").ok

    def test_same_pair_not_stepwise(self):
        res = check_pair([0.2, 0.8], [1.25, 5.0], 0.45, mode="hyperbolic")
        assert not res.ok
        assert res.margins["contraction"] < 0  # a_2 = 0.8 > 0.45

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            check_pair([0.5], [2.0], 0.5, mode="nope")


class TestWellAdapted:
    def test_spec_pair_intervals(self):
        a, b = np.array([0.2, 0.8]), np.array([1.25, 5.0])
        lam = 0.45
        c = well_adapted_sequence(a, b, lam)
        # any c with c1 in [a1/lam, b1*lam] and c2 = 1/c1 in [a2/lam, b2*lam]
        assert a[0] / lam - 1e-12 <= c[0] <= b[0] * lam + 1e-12
        assert abs(c[0] * c[1] - 1.0) <= 1e-12
        assert a[1] / lam - 1e-12 <= c[1] <= b[1] * lam + 1e-12
        assert verify_well_adapted(a, b, c, lam)

    def test_constant_pair_gives_ones(self):
        lam = 0.4
        c = well_adapted_sequence([lam] * 5, [1.0 / lam] * 5, lam)
        assert np.allclose(c, 1.0, atol=1e-12)

    def test_singleton(self):
        c = well_adapted_sequence([0.3], [4.0], 0.5)
        assert c.shape == (1,) and abs(c[0] - 1.0) <= 1e-12

    def test_infeasible_error_names_constraint(self):
        with pytest.raises(InfeasiblePairError):
            well_adapted_sequence([0.9], [1.05], 0.5)

    def test_random_pairs_verified(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(1, 21))
            lam = rng.uniform(0.1, 0.9)
            a, b = random_quasi_hyperbolic_pair(rng, n, lam)
            assert check_pair(a, b, lam).ok
            c = well_adapted_sequence(a, b, lam)
            assert verify_well_adapted(a, b, c, lam)
            assert check_pair(a / c, b / c, lam, mode="hyperbolic").ok

    def test_agreement_with_oracles_small_n(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            lam = rng.uniform(0.2, 0.8)
            if rng.random() < 0.5:
                a, b = random_quasi_hyperbolic_pair(rng, n, lam)
            else:  # arbitrary positive pair, often infeasible
                a = rng.uniform(0.05, 1.5, n)
                b = rng.uniform(0.5, 6.0, n)
            alpha, beta = quotient_log_bounds(a, b, lam)
            if np.any(alpha > beta):
                expected = False
            else:
                expected = feasible_by_lp(alpha, beta)
                assert feasible_by_interval(alpha, beta) == expected
            try:
                c = well_adapted_sequence(a, b, lam)
                got = True
                assert verify_well_adapted(a, b, c, lam)
            except InfeasiblePairError:
                got = False
            assert got == expected


class TestScaleFactors:
    def test_unit_weights(self):
        l = scale_factors([1.0, 1.0, 1.0], [0, 3])
        assert np.array_equal(l, [1.0, 1.0, 1.0, 1.0])

    def test_half_two(self):
        l = scale_factors([0.5, 2.0], [0, 2])
        assert np.array_equal(l, [1.0, 0.5, 1.0])

    def test_resets_and_bounds(self):
        rng = np.random.default_rng(2)
        lam = 0.5
        offsets = [0, 4, 9, 12]
        weights = []
        big_r = 0.0
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            a, b = random_quasi_hyperbolic_pair(rng, hi - lo, lam)
            h = well_adapted_sequence(a, b, lam)
            weights.append(h)
            big_r = max(big_r, h.max(), (1.0 / h).max())
        h = np.concatenate(weights)
        l = scale_factors(h, offsets)
        assert np.all(l[np.array(offsets)] == 1.0)
        assert np.all(l <= 1.0 + 1e-12)
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            for j in range(lo, hi + 1):
                assert l[j] >= big_r ** -(j - lo) * (1 - 1e-9)

    def test_bitwise_equal_to_sequential_loop(self):
        # the per-index running product scale_factors replaces, written out
        rng = np.random.default_rng(8)
        for _ in range(20):
            lengths = rng.integers(1, 40, int(rng.integers(1, 6)))
            offsets = np.concatenate([[0], np.cumsum(lengths)])
            h = np.exp(rng.uniform(-2.0, 2.0, int(offsets[-1])))
            loop = np.ones(int(offsets[-1]) + 1)
            for a, b in zip(offsets[:-1], offsets[1:]):
                acc = 1.0
                for j in range(a, b):
                    loop[j] = acc
                    acc *= h[j]
            loop[offsets] = 1.0
            assert np.array_equal(scale_factors(h, offsets), loop)


class TestRescaledBlocks:
    def _cat_blocks(self, n=4):
        from bishadow.splitting import eigen_splitting

        m = np.array([[2.0, 1.0], [1.0, 1.0]])
        sp = eigen_splitting(m)
        from bishadow.splitting import block_decompose

        return [block_decompose(m, sp, sp) for _ in range(n)]

    def test_cat_unit_weights_are_identity(self):
        blocks = self._cat_blocks()
        out = rescaled_blocks(blocks, np.ones(len(blocks)))
        lam = 0.62
        for b0, b1 in zip(blocks, out):
            assert np.array_equal(b0.A, b1.A)
            assert op_norm(b1.D) < lam and min_norm(b1.A) > 1.0 / lam

    def test_nonuniform_rescale_restores_stepwise(self):
        rng = np.random.default_rng(3)
        lam = 0.5
        n = 8
        a, b = random_quasi_hyperbolic_pair(rng, n, lam)
        blocks = [
            BlockJacobian(np.array([[bv]]), np.zeros((1, 1)), np.zeros((1, 1)),
                          np.array([[av]]), AXES, AXES)
            for av, bv in zip(a, b)
        ]
        h = well_adapted_sequence(a, b, lam)
        out = rescaled_blocks(blocks, h)
        new_a = [op_norm(x.D) for x in out]
        new_b = [min_norm(x.A) for x in out]
        assert check_pair(new_a, new_b, lam, mode="hyperbolic").ok

    def test_balance_verifier_rejects_non_balance(self):
        assert not is_balance_sequence([2.0, 2.0])
        assert not is_balance_sequence([0.5, 1.0])
        assert is_balance_sequence([0.5, 2.0])
        assert not verify_well_adapted([0.3], [4.0], [2.0], 0.5)
