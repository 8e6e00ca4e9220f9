import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bishadow.certification import (
    PASS_TOL,
    MarginRow,
    OrbitBlocks,
    certify_pseudo_orbit,
    is_quasi_hyperbolic,
    min_feasible_lambda,
    pseudo_orbit_blocks,
)
from bishadow.pseudo_orbit import assign_splittings, flatten, generate
from bishadow.refinement import make_refinement_config, refine
from bishadow.shadowing import make_solver_config, solve_finite
from bishadow.splitting import Splitting, eigen_splitting, min_norm, op_norm
from bishadow.systems import AffineMap, PerturbedCatMap, TorusLinearMap, cat_map

from _oracles import (
    CAT_CONTRACTING,
    CAT_EXPANDING,
    assembled,
    block_decompose,
    blocks_per_index,
    margin_rows_per_index,
    power_splittings_per_index,
    stack_blocks,
)

AXES = Splitting(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))


def cat_setup(lengths=(3, 3), jump=0.0, seed=0):
    f = cat_map()
    po = generate(f, [0.21, 0.68], list(lengths), jump, seed)
    return f, po, assign_splittings(po, f, "eigen")


def certify_segment(po, spl, f, i, lam):
    """Certificate of segment i alone: the pseudo-orbit window i..i, with a
    residual bound loose enough that only the segment conditions can bind."""
    lo, hi = po.offsets[[i - po.i_min, i + 1 - po.i_min]]
    return certify_pseudo_orbit(po.window(i, i), spl.window(lo, hi), f, lam, 0.0, 1.0)


class TestCertifySegment:
    def test_cat_eigen_passes_at_062(self):
        f, po, spl = cat_setup()
        cert = certify_segment(po, spl, f, 0, 0.62)
        assert cert.passed
        # the four binding quantities against the characteristic-root oracle
        a, d = cert.blocks.A[0], cert.blocks.D[0]
        assert abs(op_norm(d) - CAT_CONTRACTING) <= 1e-10
        assert abs(min_norm(a) - CAT_EXPANDING) <= 1e-10
        assert op_norm(d) <= 0.62
        assert min_norm(a) >= 1.0 / 0.62
        assert op_norm(d) / min_norm(a) <= 0.62 ** 2

    def test_cat_fails_at_03_binding_condition(self):
        f, po, spl = cat_setup()
        start = po.offsets[-po.i_min]
        cert = certify_segment(po, spl, f, 0, 0.3)
        assert not cert.passed
        assert cert.worst().condition == "contraction_product"
        # the single-factor product already fails: 0.382 > 0.3 at k = 1
        first = cert.margin[(cert.condition == "contraction_product") & (cert.step == start + 1)]
        assert first.size and first[0] < 0

    def test_identity_map_fails_any_lambda(self):
        f = TorusLinearMap(np.eye(2, dtype=int))
        po = flatten(np.array([[0.2, 0.3], [0.2, 0.3]]), [3], f)
        spl = assign_splittings(po, f, "user", splittings=AXES)
        for lam in (0.3, 0.9, 0.999):
            cert = certify_segment(po, spl, f, 0, lam)
            assert not cert.passed
            assert np.any(cert.margin[cert.condition == "contraction_product"] < 0)


class TestCertifyPseudoOrbit:
    def test_jump_within_delta(self):
        f, po, spl = cat_setup(jump=1e-4, seed=3)
        assert certify_pseudo_orbit(po, spl, f, 0.62, 0.0, 1e-4).passed
        cert = certify_pseudo_orbit(po, spl, f, 0.62, 0.0, 9e-5)
        assert not cert.passed
        assert cert.worst().condition == "residual"

    def test_to_dict_is_the_tree_of_python_values(self):
        f, po, spl = cat_setup(jump=1e-4, seed=3)
        cert = certify_pseudo_orbit(po, spl, f, 0.3, 0.0, 1e-4)
        names = ("condition", "segment", "step", "lhs", "rhs", "margin")
        rows = [dict(zip(names, row)) for row in zip(*(getattr(cert, n).tolist() for n in names))]
        tree = cert.to_dict()
        assert tree == {"passed": False, "lambda": 0.3, "epsilon": 0.0, "delta": 1e-4,
                        "margins": rows}
        assert {type(v) for r in tree["margins"] for v in r.values()} == {str, int, float}

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
        d_norms = [op_norm(d) for d in cert.blocks.D]
        rows = cert.condition == "contraction_product"
        for k, lhs in zip(cert.step[rows], cert.lhs[rows]):
            direct = float(np.prod(d_norms[:k]))
            assert abs(math.exp(lhs) - direct) <= 1e-9 * direct

    def test_orthogonal_coordinate_change_preserves_margins(self):
        # rotating the ambient frame leaves every certified quantity unchanged
        f, po, spl = cat_setup(lengths=(4,), jump=0.0)
        cert = certify_pseudo_orbit(po, spl, f, 0.62, 0.0, 0.0)
        th = 0.7
        q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        blocks = pseudo_orbit_blocks(po, spl, f)
        rot = Splitting(q @ spl[0].unstable, q @ spl[0].stable)
        for j in range(len(blocks)):
            rb = block_decompose(q @ assembled(blocks, spl, j) @ q.T, rot, rot)
            assert abs(op_norm(rb.D) - op_norm(blocks.D[j])) <= 1e-12
            assert abs(min_norm(rb.A) - min_norm(blocks.A[j])) <= 1e-12


class TestSummary:
    def test_counts_come_from_the_segments(self):
        f, po, spl = cat_setup(lengths=(3, 1, 4), jump=1e-6, seed=2)
        cert = certify_pseudo_orbit(po, spl, f, 0.62, 1e-9, 1e-6)
        summary = cert.summary
        assert summary["rows"] == {"contraction_product": 8, "expansion_product": 8,
                                   "ratio": 8, "offdiag": 8, "residual": 3}
        assert sum(summary["rows"].values()) == len(cert.margin)
        worst = cert.worst()
        assert summary["binding"] == {"condition": worst.condition, "segment": worst.segment,
                                      "step": worst.step, "margin": worst.margin}
        assert {k: summary[k] for k in ("passed", "lambda", "epsilon", "delta")} == \
            {k: v for k, v in cert.report().items() if k != "margins"}
        assert cert.summary is summary  # computed once per certificate

    @pytest.mark.parametrize("crafted, count, passed", [
        ((-PASS_TOL,), 1, True),           # the closed end of [-PASS_TOL, 0)
        ((-0.5 * PASS_TOL, -0.0), 1, True),  # -0.0 is no negative margin
        ((-2.0 * PASS_TOL, -1e-15), 1, False),
        ((float("nan"), -1e-13), 1, False),
    ])
    def test_within_tolerance_counts_rows_passing_through_pass_tol(self, crafted, count, passed):
        f, po, spl = cat_setup(lengths=(3, 3), jump=1e-6, seed=1)
        cert = certify_pseudo_orbit(po, spl, f, 0.62, 1e-9, 1e-6)
        margin = np.abs(cert.margin) + 1.0  # every row clear of the tolerance
        rows = [3, 17][:len(crafted)]
        margin[rows] = crafted
        crafted_cert = dataclasses.replace(
            cert, margin=margin, passed=bool(np.all(margin >= -PASS_TOL)))
        summary = crafted_cert.summary
        assert summary["within_tolerance"] == count and summary["passed"] is passed
        worst = rows[int(np.argmin(np.where(np.isnan(crafted), -np.inf, crafted)))]
        assert (summary["binding"]["condition"], summary["binding"]["step"]) == \
            (cert.condition[worst], cert.step[worst])


class TestBlocksCoverOrbit:
    """blocks= must cover the whole pseudo-orbit, not a prefix of it."""

    @pytest.mark.parametrize("entry", ["certify", "min_lambda", "refine", "shadow"])
    def test_prefix_blocks_rejected(self, entry):
        f, po, spl = cat_setup(lengths=(4,) * 10, jump=1e-5, seed=3)
        # the blocks of the first two segments only
        short = pseudo_orbit_blocks(po.window(0, 1), spl.window(0, int(po.offsets[2])), f)
        calls = {
            "certify": lambda: certify_pseudo_orbit(po, spl, f, 0.45, 1e-9, 1e-5, blocks=short),
            "min_lambda": lambda: min_feasible_lambda(po, spl, f, 1e-9, blocks=short),
            "refine": lambda: refine(po, spl, f, make_refinement_config(0.45, 0.62, R=2.7),
                                     blocks=short),
            "shadow": lambda: solve_finite(po, spl, f, f, make_solver_config(
                po, f, lam=0.45, lam_tilde=0.5), blocks=short),
        }
        with pytest.raises(ValueError, match="cover"):
            calls[entry]()


@st.composite
def orbit_and_splittings(draw):
    """A pseudo-orbit, its assignment and the per-index reference splittings,
    for every strategy, on open orbits and on closed ones (closing seed equal
    to the first)."""
    kind = draw(st.sampled_from(["eigen", "user_one", "user_each", "power"]))
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    f = cat_map() if kind == "eigen" else PerturbedCatMap(draw(st.floats(0.0, 0.05)))
    po = generate(f, rng.random(2), lengths, 1e-4, seed)
    if draw(st.booleans()):
        po = flatten(np.vstack([po.seeds[:-1], po.seeds[:1]]), lengths, f)
    n = po.n_steps
    if kind == "eigen":
        ref = [eigen_splitting(f.jacobian(po.points[0]))] * (n + 1)
        spl = assign_splittings(po, f, "eigen")
    elif kind == "power":
        depth = draw(st.integers(1, 8))
        seed_sp = eigen_splitting(f.jacobian(po.points[0]))
        ref = power_splittings_per_index(po, f, depth, seed_sp)
        spl = assign_splittings(po, f, "power", depth=depth)
    else:
        bases = rng.standard_normal((n + 1 if kind == "user_each" else 1, 2, 2))
        ref = [Splitting.from_bases(b[:, :1], b[:, 1:]) for b in bases]
        ref = ref * (n + 1) if kind == "user_one" else ref
        spl = assign_splittings(po, f, "user", splittings=ref[0] if kind == "user_one" else ref)
    return f, po, spl, ref


class TestStackedEqualsPerIndex:
    """Stacked splittings, blocks and margin columns against the per-index
    references of tests/_oracles.py, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(case=orbit_and_splittings())
    def test_assignment_and_blocks(self, case):
        f, po, spl, ref = case
        for name in ("unstable", "stable", "basis_inv"):
            assert np.array_equal(getattr(spl, name), np.stack([getattr(sp, name) for sp in ref]))
        blocks = pseudo_orbit_blocks(po, spl, f)
        expected = stack_blocks(blocks_per_index(po, ref, f))
        for name in "ABCD":
            assert np.array_equal(getattr(blocks, name), getattr(expected, name))

    @settings(max_examples=60, deadline=None)
    @given(case=orbit_and_splittings(), lam=st.floats(0.05, 0.95),
           epsilon=st.floats(0.0, 0.1), delta=st.floats(0.0, 2e-4))
    def test_certificate_columns(self, case, lam, epsilon, delta):
        f, po, spl, ref = case
        cert = certify_pseudo_orbit(po, spl, f, lam, epsilon, delta)
        rows = margin_rows_per_index(po, blocks_per_index(po, ref, f), lam, epsilon, delta)
        columns = (cert.condition, cert.segment, cert.step, cert.lhs, cert.rhs, cert.margin)
        assert list(zip(*(c.tolist() for c in columns))) == [
            (c, s, t, float(l), float(r), float(m)) for c, s, t, l, r, m in rows]
        assert cert.passed == all(m >= -PASS_TOL for *_, m in rows)
        worst = min(rows, key=lambda r: r[-1])
        assert cert.worst() == MarginRow(*worst[:3], *map(float, worst[3:]))


class TestBlockNorms:
    def test_matches_per_block_norms_exactly(self):
        rng = np.random.default_rng(21)
        for n, du in ((2, 1), (3, 1), (3, 2), (4, 2), (2, 2), (2, 0)):
            blocks = OrbitBlocks(*(rng.standard_normal((30,) + shape) for shape in
                                   ((du, du), (du, n - du), (n - du, du), (n - du, n - du))))
            m_a, norm_d, off = blocks.norms
            assert np.array_equal(m_a, [min_norm(a) for a in blocks.A])
            assert np.array_equal(norm_d, [op_norm(d) for d in blocks.D])
            assert np.array_equal(off, [max(op_norm(b), op_norm(c))
                                        for b, c in zip(blocks.B, blocks.C)])

    def test_computed_once_per_blocks(self):
        # certifying caches the norms on the blocks; later readers reuse them
        f, po, spl = cat_setup()
        blocks = pseudo_orbit_blocks(po, spl, f)
        assert "norms" not in vars(blocks)
        certify_pseudo_orbit(po, spl, f, 0.5, 0.0, 1e-3, blocks=blocks)
        norms = vars(blocks)["norms"]
        min_feasible_lambda(po, spl, f, 0.0, blocks=blocks)
        assert blocks.norms is norms


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
        worst = max(max(op_norm(b), op_norm(c)) for b, c in zip(cert.blocks.B, cert.blocks.C))
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
        assert certify_pseudo_orbit(po, None, None, lam, 0.0, 0.0, blocks=blocks).passed

    def test_rounding_nudge_keeps_returned_rate_certified(self):
        # ||D_j|| grows along one 10^4-step segment, so only the full-length
        # contraction product binds; for this draw exp/log rounding leaves its
        # margin at exp(closed form) below -PASS_TOL
        n = 10_000
        rng = np.random.default_rng(12)
        d = np.exp(np.linspace(-5.0, -1.0, n) + 1e-3 * rng.standard_normal(n))
        blocks = OrbitBlocks(np.full((n, 1, 1), math.exp(10.0)), np.zeros((n, 1, 1)),
                             np.zeros((n, 1, 1)), d[:, None, None])
        f = AffineMap(np.diag([4.0, 0.25]))
        po = flatten(np.zeros((2, 2)), [n], f)
        logs = np.cumsum(np.log([op_norm(v) for v in blocks.D]))
        unrounded = math.exp(float(np.max(logs / np.arange(1, n + 1))))
        assert not certify_pseudo_orbit(po, None, None, unrounded, 0.0, 0.0, blocks=blocks).passed
        lam = min_feasible_lambda(po, None, f, 0.0, blocks=blocks)
        assert certify_pseudo_orbit(po, None, None, lam, 0.0, 0.0, blocks=blocks).passed
        assert unrounded < lam <= unrounded * (1.0 + 1e-14)

    def test_epsilon_infeasible_reported(self):
        f = PerturbedCatMap(0.01)
        po = generate(f, [0.21, 0.68], [3], 0.0, 0)
        spl = assign_splittings(po, f, "user",
                                splittings=Splitting.from_bases(*_cat_eigen_bases()))
        assert min_feasible_lambda(po, spl, f, 0.0) is None
