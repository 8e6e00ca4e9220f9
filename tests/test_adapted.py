import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bishadow.adapted import InfeasiblePairError, scale_factors, well_adapted_sequence
from bishadow.certification import OrbitBlocks
from bishadow.splitting import min_norm, op_norm

from _oracles import (
    block_decompose,
    check_pair,
    feasible_by_interval,
    feasible_by_lp,
    is_balance_sequence,
    lowest_partial_sum_by_lp,
    quotient_log_bounds,
    random_quasi_hyperbolic_pair,
    rescaled_blocks,
    stack_blocks,
    verify_well_adapted,
    well_adapted_reference,
)


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

    @pytest.mark.parametrize("which, value, message", [
        ("b", 0.0, "b = 0 at position 2 is not positive and finite"),
        ("b", np.inf, "b = inf at position 2 is not positive and finite"),
        ("a", np.nan, "a = nan at position 2 is not nonnegative and finite"),
        ("a", -0.1, "a = -0.1 at position 2 is not nonnegative and finite"),
    ])
    def test_bad_terms_refused_by_position(self, which, value, message):
        pair = {"a": np.array([0.3, 0.3, 0.2]), "b": np.array([2.0, 2.0, 3.0])}
        pair[which][1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasiblePairError, match=message):
                well_adapted_sequence(pair["a"], pair["b"], 0.5)

    def test_zero_contraction_contracts_fully(self):
        a, b = [0.0, 0.3, 0.2], [2.0, 2.0, 3.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = well_adapted_sequence(a, b, 0.5)
        assert verify_well_adapted(a, b, c, 0.5)

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

    def test_partial_sums_are_the_lowest_feasible(self):
        # each partial sum of ln c is the least that partial sum of any
        # feasible log sequence reaches, found by a linear program
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            lam = rng.uniform(0.2, 0.8)
            a, b = random_quasi_hyperbolic_pair(rng, n, lam)
            alpha, beta = quotient_log_bounds(a, b, lam)
            sums = np.cumsum(np.log(well_adapted_sequence(a, b, lam)))
            for k in range(1, n):
                assert abs(sums[k - 1] - lowest_partial_sum_by_lp(alpha, beta, k)) <= 1e-12


def random_pair_stack(rng, rows, n, lam):
    """rows quasi-hyperbolic pairs of length n, as two (rows, n) stacks."""
    a, b = zip(*(random_quasi_hyperbolic_pair(rng, n, lam) for _ in range(rows)))
    return np.array(a), np.array(b)


class TestBatchedWeights:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 20), n=st.integers(1, 8),
           lam=st.floats(0.1, 0.9, exclude_min=True, exclude_max=True),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_the_reference_bitwise(self, rows, n, lam, seed):
        a, b = random_pair_stack(np.random.default_rng(seed), rows, n, lam)
        expected = np.stack([well_adapted_reference(x, y, lam) for x, y in zip(a, b)])
        assert np.array_equal(well_adapted_sequence(a, b, lam), expected)

    @pytest.mark.parametrize("a_bad, b_bad, message", [
        (0.99, 1.01, "empty quotient window"),  # a/lam > b lam at one position
        # a/lam > 1 at the first position: the first partial sum is above 0
        (0.6, 10.0, "contraction product of the first 1 terms exceeds lam\\^1"),
        # b lam < 1 at every position: the whole row cannot expand by lam^-4
        (0.1, 1.5, "expansion product of the last 4 terms is below lam\\^-4"),
    ])
    def test_one_infeasible_row_fails_the_stack(self, a_bad, b_bad, message):
        a, b = random_pair_stack(np.random.default_rng(5), 6, 4, 0.5)
        a[3], b[3] = a_bad, b_bad
        with pytest.raises(InfeasiblePairError, match=message):
            well_adapted_sequence(a, b, 0.5)
        with pytest.raises(InfeasiblePairError, match=message):
            well_adapted_reference(a[3], b[3], 0.5)


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
        return stack_blocks([block_decompose(m, sp, sp)] * n)

    def test_cat_unit_weights_are_identity(self):
        blocks = self._cat_blocks()
        out = rescaled_blocks(blocks, np.ones(len(blocks)))
        lam = 0.62
        assert np.array_equal(blocks.A, out.A)
        for a1, d1 in zip(out.A, out.D):
            assert op_norm(d1) < lam and min_norm(a1) > 1.0 / lam

    def test_nonuniform_rescale_restores_stepwise(self):
        rng = np.random.default_rng(3)
        lam = 0.5
        n = 8
        a, b = random_quasi_hyperbolic_pair(rng, n, lam)
        zero = np.zeros((n, 1, 1))
        blocks = OrbitBlocks(b[:, None, None], zero, zero, a[:, None, None])
        h = well_adapted_sequence(a, b, lam)
        out = rescaled_blocks(blocks, h)
        new_a = [op_norm(x) for x in out.D]
        new_b = [min_norm(x) for x in out.A]
        assert check_pair(new_a, new_b, lam, mode="hyperbolic").ok

    def test_balance_verifier_rejects_non_balance(self):
        assert not is_balance_sequence([2.0, 2.0])
        assert not is_balance_sequence([0.5, 1.0])
        assert is_balance_sequence([0.5, 2.0])
        assert not verify_well_adapted([0.3], [4.0], [2.0], 0.5)
