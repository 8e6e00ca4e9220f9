import math

import numpy as np

from bishadow.certification import (
    certify_blocks,
    certify_pseudo_orbit,
    certify_segment,
    is_quasi_hyperbolic,
    min_feasible_lambda,
    pseudo_orbit_blocks,
)
from bishadow.pseudo_orbit import assign_splittings, flatten, generate
from bishadow.splitting import BlockJacobian, Splitting, min_norm, op_norm
from bishadow.systems import AffineMap, PerturbedCatMap, TorusLinearMap, cat_map

from _oracles import CAT_CONTRACTING, CAT_EXPANDING

AXES = Splitting(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))


def cat_setup(lengths=(3, 3), jump=0.0, seed=0):
    f = cat_map()
    po = generate(f, [0.21, 0.68], list(lengths), jump, seed)
    return f, po, assign_splittings(po, f, "eigen")


class TestCertifySegment:
    def test_cat_eigen_passes_at_062(self):
        f, po, spl = cat_setup()
        cert = certify_segment(po.segment(0), spl, f, 0.62, 0.0)
        assert cert.passed
        # the four binding quantities against the characteristic-root oracle
        blk = cert.blocks[0][0]
        assert abs(op_norm(blk.D) - CAT_CONTRACTING) <= 1e-10
        assert abs(min_norm(blk.A) - CAT_EXPANDING) <= 1e-10
        assert op_norm(blk.D) <= 0.62
        assert min_norm(blk.A) >= 1.0 / 0.62
        assert op_norm(blk.D) / min_norm(blk.A) <= 0.62 ** 2

    def test_cat_fails_at_03_binding_condition(self):
        f, po, spl = cat_setup()
        seg = po.segment(0)
        cert = certify_segment(seg, spl, f, 0.3, 0.0)
        assert not cert.passed
        assert cert.worst().condition == "contraction_product"
        # the single-factor product already fails: 0.382 > 0.3 at k = 1
        first = [r for r in cert.margins
                 if r.condition == "contraction_product" and r.step == seg.start + 1]
        assert first and first[0].margin < 0

    def test_identity_map_fails_any_lambda(self):
        f = TorusLinearMap(np.eye(2, dtype=int))
        po = flatten(np.array([[0.2, 0.3], [0.2, 0.3]]), [3], f)
        spl = assign_splittings(po, f, "user", splittings=AXES)
        for lam in (0.3, 0.9, 0.999):
            cert = certify_segment(po.segment(0), spl, f, lam, 0.0)
            assert not cert.passed
            assert any(r.condition == "contraction_product" and r.margin < 0
                       for r in cert.margins)


class TestCertifyPseudoOrbit:
    def test_jump_within_delta(self):
        f, po, spl = cat_setup(jump=1e-4, seed=3)
        assert certify_pseudo_orbit(po, spl, f, 0.62, 0.0, 1e-4).passed
        cert = certify_pseudo_orbit(po, spl, f, 0.62, 0.0, 9e-5)
        assert not cert.passed
        assert cert.worst().condition == "residual"

    def test_zero_jump_zero_delta(self):
        f, po, spl = cat_setup(jump=0.0)
        assert certify_pseudo_orbit(po, spl, f, 0.62, 0.0, 0.0).passed

    def test_monotone_in_parameters(self):
        rng = np.random.default_rng(12)
        f, po, spl = cat_setup(lengths=(2, 3, 2), jump=1e-4, seed=5)
        base = (0.62, 1e-6, 1e-4)
        assert certify_pseudo_orbit(po, spl, f, *base).passed
        for _ in range(20):
            lam = base[0] + rng.uniform(0, 0.3)
            eps = base[1] + rng.uniform(0, 1)
            delta = base[2] + rng.uniform(0, 1)
            assert certify_pseudo_orbit(po, spl, f, min(lam, 0.999), eps, delta).passed

    def test_log_products_match_direct_products(self):
        f, po, spl = cat_setup(lengths=(50,), jump=0.0)
        cert = certify_pseudo_orbit(po, spl, f, 0.62, 0.0, 0.0)
        blocks = cert.blocks[0]
        d_norms = [op_norm(b.D) for b in blocks]
        for row in cert.margins:
            if row.condition != "contraction_product":
                continue
            k = row.step
            direct = float(np.prod(d_norms[:k]))
            assert abs(math.exp(row.lhs) - direct) <= 1e-9 * direct

    def test_orthogonal_coordinate_change_preserves_margins(self):
        # rotating the ambient frame leaves every certified quantity unchanged
        f, po, spl = cat_setup(lengths=(4,), jump=0.0)
        cert = certify_pseudo_orbit(po, spl, f, 0.62, 0.0, 0.0)
        th = 0.7
        q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        blocks = pseudo_orbit_blocks(po, spl, f)
        rot = Splitting(q @ spl[0].unstable, q @ spl[0].stable)
        from bishadow.splitting import block_decompose

        for seg in blocks:
            for b in seg:
                rb = block_decompose(q @ b.assembled() @ q.T, rot, rot)
                assert abs(op_norm(rb.D) - op_norm(b.D)) <= 1e-12
                assert abs(min_norm(rb.A) - min_norm(b.A)) <= 1e-12


class TestQuasiHyperbolic:
    def test_cat_eigen_true(self):
        f, po, spl = cat_setup()
        cert = certify_pseudo_orbit(po, spl, f, 0.62, 0.0, 0.0)
        assert is_quasi_hyperbolic(cert, 1e-10)

    def test_perturbed_with_unperturbed_splitting_false(self):
        f = PerturbedCatMap(0.01)
        po = generate(f, [0.21, 0.68], [3], 0.0, 0)
        spl = assign_splittings(po, f, "user",
                                splittings=Splitting.from_bases(*_cat_eigen_bases()))
        cert = certify_pseudo_orbit(po, spl, f, 0.62, 0.02, 0.0)
        assert not is_quasi_hyperbolic(cert, 1e-10)
        # off-diagonals scale with the perturbation amplitude
        worst = max(max(op_norm(b.B), op_norm(b.C)) for s in cert.blocks for b in s)
        assert 1e-4 <= worst <= 0.02


def _cat_eigen_bases():
    from bishadow.splitting import eigen_splitting

    sp = eigen_splitting(np.array([[2.0, 1.0], [1.0, 1.0]]))
    return sp.unstable, sp.stable


class TestMinFeasibleLambda:
    def test_cat_map_value(self):
        f, po, spl = cat_setup()
        lam = min_feasible_lambda(po, spl, f, 0.0)
        assert lam is not None
        assert abs(lam - CAT_CONTRACTING) <= 1e-6

    def test_identity_infeasible(self):
        f = TorusLinearMap(np.eye(2, dtype=int))
        po = flatten(np.array([[0.2, 0.3], [0.2, 0.3]]), [2], f)
        spl = assign_splittings(po, f, "user", splittings=AXES)
        assert min_feasible_lambda(po, spl, f, 0.0) is None

    def test_diag_4_quarter(self):
        f = AffineMap(np.diag([4.0, 0.25]))
        po = flatten(np.array([[0.1, 0.1], [0.0, 0.0]]), [3], f)
        spl = assign_splittings(po, f, "user", splittings=AXES)
        lam = min_feasible_lambda(po, spl, f, 0.0)
        assert abs(lam - 0.25) <= 1e-6

    def test_bisection_matches_analytic_oracle(self):
        # exact threshold: max over the three families of their binding lambda
        rng = np.random.default_rng(4)
        for _ in range(5):
            rates = rng.uniform(1.5, 4.0, 4)
            f = AffineMap(np.diag([rates[0], 1.0 / rates[1]]))
            po = flatten(np.vstack([[0.1, 0.1], np.zeros((1, 2))]), [4], f)
            spl = assign_splittings(po, f, "user", splittings=AXES)
            lam = min_feasible_lambda(po, spl, f, 0.0)
            d, a = 1.0 / rates[1], rates[0]
            oracle = max(d, 1.0 / a, math.sqrt(d / a))
            assert abs(lam - oracle) <= 2e-6

    def test_long_cat_orbit_certifies_at_returned_rate(self):
        # one 10^4-step segment: product rows sum 10^4 logs, so rounding in
        # the closed form shows here first
        f = cat_map()
        po = generate(f, [0.21, 0.68], [10_000], 0.0, 0)
        spl = assign_splittings(po, f, "eigen")
        blocks = pseudo_orbit_blocks(po, spl, f)
        lam = min_feasible_lambda(po, spl, f, 0.0, blocks=blocks)
        assert abs(lam - CAT_CONTRACTING) <= 1e-6
        assert certify_blocks(blocks, po.residuals, po, lam, 0.0, 0.0).passed

    def test_rounding_nudge_keeps_returned_rate_certified(self):
        # ||D_j|| grows along one 10^4-step segment, so only the full-length
        # contraction product binds; for this draw exp/log rounding leaves its
        # margin at exp(closed form) below -PASS_TOL
        n = 10_000
        rng = np.random.default_rng(12)
        d = np.exp(np.linspace(-5.0, -1.0, n) + 1e-3 * rng.standard_normal(n))
        blocks = (tuple(BlockJacobian(np.array([[math.exp(10.0)]]), np.zeros((1, 1)),
                                      np.zeros((1, 1)), np.array([[v]]), AXES, AXES)
                        for v in d),)
        f = AffineMap(np.diag([4.0, 0.25]))
        po = flatten(np.zeros((2, 2)), [n], f)
        logs = np.cumsum(np.log([op_norm(b.D) for b in blocks[0]]))
        unrounded = math.exp(float(np.max(logs / np.arange(1, n + 1))))
        assert not certify_blocks(blocks, po.residuals, po, unrounded, 0.0, 0.0).passed
        lam = min_feasible_lambda(po, None, f, 0.0, blocks=blocks)
        assert certify_blocks(blocks, po.residuals, po, lam, 0.0, 0.0).passed
        assert unrounded < lam <= unrounded * (1.0 + 1e-14)

    def test_epsilon_infeasible_reported(self):
        f = PerturbedCatMap(0.01)
        po = generate(f, [0.21, 0.68], [3], 0.0, 0)
        spl = assign_splittings(po, f, "user",
                                splittings=Splitting.from_bases(*_cat_eigen_bases()))
        assert min_feasible_lambda(po, spl, f, 0.0) is None
