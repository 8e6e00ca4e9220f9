"""Tiny stacks without LAPACK.

On T^2 every tangent block is 1x1.  Phase.canon takes x - floor(x), the
singular values of 1x1 blocks are |a| and 1x1 solves divide; each gives
the bits of the np.mod or LAPACK form it replaced (tests/_oracles.py),
and no kernel path hands LAPACK a stack of 1x1 matrices.

The 2x2 Jacobians and bases of T^2 are checked for singularity and
transversality by closed-form extreme singular values, within 8 eps s_max
of LAPACK's, so both checks give LAPACK's verdict outside a band of
16 eps s_max around their thresholds.  2x1 basis columns are
orthonormalised by LAPACK's own Householder arithmetic, with its bits.
No certify, power or solve path on T^2 calls svd on a 2x2 stack or the
reduced QR on 2x1 columns.

The complement of a 2x1 column (a, b) is copysign(1, a) (-b, a), exactly
orthogonal to it, and within 4 eps of the complete QR's column; a 2x2
basis is inverted by its adjugate, as accurately as by LAPACK.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bishadow.certification import (_singular_values, _solve_stack, certify_pseudo_orbit,
                                    min_feasible_lambda, pseudo_orbit_blocks)
from bishadow.oracle import AffineSequenceSystem, cat_map_periodic_points
from bishadow.pseudo_orbit import (SplittingAssignment, _complement, assign_splittings, flatten,
                                   generate)
from bishadow.refinement import _graphs, make_refinement_config, refine
from bishadow.shadowing import _solve_rows, make_solver_config, solve_finite, solve_periodic
from bishadow.splitting import (_SAFMIN, _checked_basis, _extreme_singular_values,
                                _householder_columns, _orthonormalize, eigen_splitting)
from bishadow.systems import Phase, PerturbedCatMap, ShiftedMap, cat_map, system_bounds

from _oracles import (adjugate_inverses, canon_mod, graphs_lapack, iterate_orbit,
                      orthonormalize_qr, singular_values_svd, solve_stack_lapack)

TORUS = Phase("torus", 2)
SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0]
EPS = np.finfo(float).eps


def extremes_svd(x):
    """The largest and smallest singular values of the stack x, by SVD."""
    return singular_values_svd(x, 0, 0.0), singular_values_svd(x, -1, 0.0)


def same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def column(values):
    """A stack of 1x1 matrices holding values."""
    return np.asarray(values, dtype=float).reshape(-1, 1, 1)


# --- no LAPACK call on a 1x1 stack ---------------------------------------


def cat_problems():
    f = cat_map()
    po = generate(f, [0.13, 0.41], [4] * 5, 1e-4, 42)
    cyc = [p for p in cat_map_periodic_points(3) if p != (0, 0)][0]
    orb = iterate_orbit(f, np.array([float(v) for v in cyc]), 3)
    jit = [f.phase.canon(orb[i] + 1e-4 * np.random.default_rng(5).standard_normal(2))
           for i in range(3)]
    closed = flatten(np.array(jit + [jit[0]]), [1, 1, 1], f)
    return f, ShiftedMap(f, [1e-4, 0.0]), po, "eigen", closed


def perturbed_problems():
    f = PerturbedCatMap(0.005)
    po = generate(f, [0.3, 0.7], [4] * 5, 1e-5, 7)
    jit = 1e-5 * np.random.default_rng(3).standard_normal((3, 2))
    closed = flatten(f.phase.canon(np.concatenate([jit, jit[:1]])), [1, 1, 1], f)
    return f, PerturbedCatMap(0.00501), po, "power", closed


@pytest.mark.parametrize("problems", [cat_problems, perturbed_problems])
def test_no_lapack_call_on_a_1x1_stack(monkeypatch, problems):
    f, g, po, strategy, closed = problems()
    spl = assign_splittings(po, f, strategy)
    closed_spl = assign_splittings(closed, f, "eigen")
    calls = []  # the name, matrix shape and mode of every svd, solve and qr call
    for name in ("svd", "solve", "qr"):
        def recorded(a, *args, _call=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a), kwargs.get("mode", "reduced")))
            return _call(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    mods = []  # canon takes x - floor(x), not np.mod

    def no_mod(*args, _call=np.mod, **kwargs):
        mods.append(args)
        return _call(*args, **kwargs)

    monkeypatch.setattr(np, "mod", no_mod)

    assert certify_pseudo_orbit(po, spl, f, 0.45, 1e-6, 1e-4).passed
    assert min_feasible_lambda(po, spl, f, 1e-6) is not None
    cfg = make_solver_config(po, f, lam=0.45)
    assert solve_finite(po, spl, f, g, cfg).converged
    assert solve_periodic(closed, closed_spl, f, g, make_solver_config(closed, f, lam=0.45)
                          ).converged
    R = system_bounds(f).R
    assert refine(po, spl, f, make_refinement_config(0.45, 0.55, R=R)).certificate.passed
    assign_splittings(po, f, "power")
    assign_splittings(closed, f, "power", depth=4)
    assert calls  # the recorders see the 2x2 Jacobian stacks
    tiny = [c for c in calls if len(c[1]) >= 3 and c[1][-2:] == (1, 1)]
    svd_2x2 = [c for c in calls if c[0] == "svd" and len(c[1]) >= 3 and c[1][-2:] == (2, 2)]
    qr_2x1 = [c for c in calls if c[0] == "qr" and c[1][-2:] == (2, 1) and c[2] == "reduced"]
    assert (tiny, svd_2x2, qr_2x1) == ([], [], [])
    assert mods == []


# --- the replacements against the forms they replaced --------------------


POWERS = [s * 10.0 ** -k for k in range(1, 300) for s in (1.0, -1.0)]
NEAR_2_52 = [s * (2.0 ** 52 + d) for s in (1.0, -1.0)
             for d in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]


@pytest.mark.parametrize("values", [
    POWERS,
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308],
    NEAR_2_52,
    -np.arange(0.0, 1e4, 0.01),  # a long negative ramp
    np.random.default_rng(0).uniform(-1e6, 1e6, 10_000),
])
def test_canon_is_the_mod_form(values):
    assert same_bits(TORUS.canon(values), canon_mod(values))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8)
       | st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8))
def test_canon_is_the_mod_form_for_any_finite_value(values):
    assert same_bits(TORUS.canon(values), canon_mod(values))
    assert same_bits(TORUS.canon(values[0]), canon_mod(values[0]))  # a 0-d input


# LAPACK rescales a block of norm outside about (6.7e-139, 1.5e138) and
# rounds in doing so; inside that range |a| is LAPACK's value bit for bit
UNSCALED = st.floats(1e-130, 1e130) | st.floats(-1e130, -1e-130) | st.sampled_from([0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(UNSCALED, min_size=1, max_size=16), st.sampled_from([0, -1]))
def test_1x1_singular_values_are_the_svd(values, k):
    x = column(values)
    assert same_bits(_singular_values(x, k, 0.0), singular_values_svd(x, k, 0.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=16))
def test_1x1_singular_values_are_exact(values):
    assert same_bits(_singular_values(column(values), 0, 0.0), np.abs(values))


def test_nonfinite_1x1_blocks_keep_the_svd():
    with pytest.raises(np.linalg.LinAlgError):
        _singular_values(column([1.0, np.nan]), 0, 0.0)
    x = column([1.0, np.inf, -np.inf])
    assert same_bits(_singular_values(x, 0, 0.0), singular_values_svd(x, 0, 0.0))
    assert same_bits(_singular_values(np.zeros((3, 1, 0)), 0, 7.0), [7.0] * 3)


ANY = st.floats() | st.sampled_from(SPECIAL)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the oracle's LAPACK on NaN and inf
@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(ANY, ANY), min_size=1, max_size=12))
def test_1x1_solve_is_lapack(rows):
    a, b = (column(v) for v in zip(*rows))
    x, singular = _solve_stack(a, b)
    x_ref, singular_ref = solve_stack_lapack(a, b)
    assert same_bits(x, x_ref)
    assert np.array_equal(singular, singular_ref)
    x, singular = _solve_rows(a, b[:, 0])
    assert same_bits(x, x_ref[:, 0]) and np.array_equal(singular, singular_ref)


@pytest.mark.parametrize("shape_a, shape_b", [((6, 1, 1), (6, 1, 2)), ((6, 2, 2), (6, 2, 1))])
def test_larger_solves_are_lapack(shape_a, shape_b):
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
    a[2] = 0.0  # one singular system
    x, singular = _solve_stack(a, b)
    x_ref, singular_ref = solve_stack_lapack(a, b)
    assert same_bits(x, x_ref) and np.array_equal(singular, singular_ref)
    assert singular.tolist() == [False, False, True, False, False, False]


# |num / den| stays inside the range where LAPACK's norm of G is unscaled
NUM = st.floats(1e-100, 1e3) | st.floats(-1e3, -1e-100) | st.sampled_from([0.0, -0.0])
DEN = (st.floats(1e-14, 4.0) | st.floats(-4.0, -1e-14)
       | st.sampled_from([0.0, -0.0, 1e-14, -1e-14, 1e-15, 2e-14, 1e-300]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(NUM, DEN), min_size=1, max_size=12))
def test_graphs_are_the_lapack_form(rows):
    num, den = (column(v) for v in zip(*rows))
    G, norms = _graphs(num, den)
    G_ref, norms_ref = graphs_lapack(num, den)
    assert same_bits(G, G_ref) and same_bits(norms, norms_ref)
    assert np.isinf(norms[np.abs(den[:, 0, 0]) <= 1e-14]).all()  # singular denominators


def test_graphs_of_1xk_blocks_are_the_lapack_form():
    rng = np.random.default_rng(2)
    num, den = rng.standard_normal((8, 2, 1)), rng.standard_normal((8, 1, 1))
    den[3] = 0.0
    for pair in ((num, den), (rng.standard_normal((8, 1, 2)), rng.standard_normal((8, 2, 2)))):
        G, norms = _graphs(*pair)
        G_ref, norms_ref = graphs_lapack(*pair)
        assert same_bits(G, G_ref) and same_bits(norms, norms_ref)


# --- 2x1 columns and 2x2 checks of T^2 ------------------------------------


def signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])


WIDE = signed(st.floats(1e-300, 1e300))
COLUMN_ENTRY = WIDE | st.sampled_from(SPECIAL + [1e-300, -1e300, 1.7e308, -1.7e308])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(COLUMN_ENTRY, COLUMN_ENTRY), min_size=1, max_size=12))
@example([(0.0, 2.5), (-0.0, -2.5), (0.0, -2.5), (-0.0, 2.5), (2.5, 0.0), (-2.5, -0.0)])
def test_2x1_columns_are_lapack_qr(rows):
    x = np.array(rows).reshape(-1, 2, 1)
    assert same_bits(_orthonormalize(x), orthonormalize_qr(x))
    for col in x:  # each column alone, so that one b = 0 or nan keeps no other off its path
        ref = orthonormalize_qr(col)
        assert same_bits(_orthonormalize(col), ref)
        a, b = col[:, 0]
        w = np.abs(col).max()
        if b != 0.0 and _SAFMIN <= w <= 1e308:  # finite, and so is lapy2(a, b) <= sqrt(2) w
            assert same_bits(_householder_columns(col), ref)  # the closed form, not LAPACK


MID = signed(st.floats(1e-100, 1e100))
REL = st.floats(-1e-9, 1e-9) | signed(st.floats(1e-16, 1e-12)) | st.sampled_from([0.0, 2e-14])


def near_singular(rows):
    """2x2 matrices [[a, b], [c, b c / a (1 + t)]], singular up to t."""
    a, b, c, t = (np.array(v) for v in zip(*rows))
    with np.errstate(over="ignore"):
        return np.stack([a, b, c, b * c / a * (1.0 + t)], axis=-1).reshape(-1, 2, 2)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(MID, MID, MID, REL), min_size=1, max_size=8).map(near_singular)
       | st.lists(st.tuples(WIDE, WIDE, WIDE, WIDE), min_size=1, max_size=8).map(
           lambda rows: np.reshape(rows, (-1, 2, 2))))
def test_2x2_singular_checks_give_the_svd_verdict(x):
    assume(np.isfinite(x).all())
    s_max, s_min = _extreme_singular_values(x)
    ref_max, ref_min = extremes_svd(x)
    assert (np.abs(s_max - ref_max) <= 8 * EPS * ref_max).all()
    assert (np.abs(s_min - ref_min) <= 8 * EPS * ref_max).all()
    far = np.abs(ref_min - 1e-14 * ref_max) > 16 * EPS * ref_max
    assert np.array_equal((s_min <= s_max * 1e-14)[far], (ref_min <= ref_max * 1e-14)[far])


def unit_columns(angles):
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)[..., None]


def gap_offsets(min_gap):
    """Lists of offsets from [-0.5, 0.5] or [-1, 1e6], drawn outside the band
    |offset| <= 32 EPS sqrt(2) / min_gap: there s_min, about min_gap (1 +
    offset), could lie within 16 EPS sqrt(2) of min_gap, where the closed
    form need not give the SVD's verdict.  The band is twice that width, for
    the rounding of the columns and of phi + t."""
    band = 32 * EPS * np.sqrt(2.0) / min_gap
    side = (st.floats(-0.5, -band) | st.floats(band, 0.5)
            | st.floats(-1.0, -band) | st.floats(band, 1e6))
    return st.tuples(st.just(min_gap), st.lists(side, min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 2 * np.pi), st.sampled_from([1e-12, 1e-6]).flatmap(gap_offsets))
def test_gap_check_gives_the_svd_verdict(phi, gap_and_offsets):
    # the columns of [u | s] at angle t have s_min = sqrt(2) sin(t / 2), so
    # t = sqrt(2) min_gap (1 + offset) puts s_min near the threshold
    min_gap, offsets = gap_and_offsets
    t = np.sqrt(2.0) * min_gap * (1.0 + np.array(offsets))
    u, s = unit_columns(np.full_like(t, phi)), unit_columns(phi + t)
    ref_min = extremes_svd(np.concatenate([u, s], axis=-1))[1]
    assert (np.abs(ref_min - min_gap) > 16 * EPS * np.sqrt(2.0)).all()
    narrow = np.flatnonzero(ref_min < min_gap)

    def gap_error(j):
        return ValueError(f"narrow at {j}")

    if narrow.size:
        with pytest.raises(ValueError, match=f"^narrow at {narrow[0]}$"):
            _checked_basis(u, s, min_gap, gap_error)
    else:
        _checked_basis(u, s, min_gap, gap_error)


def complement_qr(b):
    """The complement column of the complete QR of 2x1 columns b."""
    return np.linalg.qr(b, mode="complete")[0][..., 1:]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(MID | st.sampled_from([0.0, -0.0]), MID), min_size=1, max_size=12))
@example([(0.0, 2.5), (-0.0, -2.5), (2.5, 0.0), (-2.5, -0.0), (0.0, 0.0), (-0.0, 0.0)])
def test_2x1_complement_is_exact(rows):
    # a signed permutation of the column, so exactly orthogonal to it and of
    # its norm, and (0, 1) wherever b == 0, where LAPACK takes no reflection
    x = np.array(rows).reshape(-1, 2, 1)
    c = _complement(x)
    (a, b), (ca, cb) = x[..., 0].T, c[..., 0].T
    assert np.array_equal(a * ca + b * cb, np.zeros_like(a))
    moved = b != 0.0
    assert same_bits(np.sort(np.abs(c[moved]), axis=1), np.sort(np.abs(x[moved]), axis=1))
    assert same_bits(c[~moved], np.broadcast_to([[0.0], [1.0]], c[~moved].shape))
    assert np.array_equal(np.signbit(c), np.signbit(complement_qr(x)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 2 * np.pi) | st.sampled_from(
    [0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 1e-300, np.pi / 2 + 1e-16]), min_size=1, max_size=12))
def test_2x1_complement_is_the_qr_column(angles):
    # on unit columns, within 4 eps of the complete QR's column, whose (1, 1)
    # entry LAPACK rounds as a fused product (3.5 eps seen on 4e6 columns)
    x = unit_columns(np.array(angles))
    x /= np.sqrt(np.sum(x * x, axis=-2, keepdims=True))
    assert (np.abs(_complement(x) - complement_qr(x)) <= 4 * EPS).all()


@pytest.mark.parametrize("a, b", [(sa * 0.0, sb * 1.0) for sa in (1, -1) for sb in (1, -1)]
                         + [(sa * 1.0, sb * 0.0) for sa in (1, -1) for sb in (1, -1)])
def test_axis_complements_are_the_qr_columns(a, b):
    # signed zeros on the axes: QR's column bit for bit
    x = np.array([[[a], [b]]])
    assert same_bits(_complement(x), complement_qr(x))


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 2 * np.pi), st.lists(st.floats(1e-10, np.pi - 1e-10)
                                           | signed(st.floats(1e-10, 1e-3)), min_size=1,
                                           max_size=12))
def test_2x2_inverse_is_the_adjugate(phi, offsets):
    # bases of unit columns at angle t apart pass the gap check; the inverse
    # is the adjugate over the determinant, and as accurate as LAPACK's
    t = np.array(offsets)
    u, s = unit_columns(np.full_like(t, phi)), unit_columns(phi + t)
    basis, inv = _checked_basis(u, s)
    assert same_bits(inv, adjugate_inverses(basis))
    s_min = extremes_svd(basis)[1]
    assert (np.abs(basis @ inv - np.eye(2)).max(axis=(1, 2)) <= 4 * EPS / s_min).all()
    assert same_bits(_checked_basis(u[0], s[0])[1], inv[0])


@pytest.mark.parametrize("t", [0.0, 1e-14, np.pi, 1e-300])
def test_narrow_basis_raises_before_the_inverse(t):
    # a determinant of zero or near it never reaches the division: floating
    # point errors and RuntimeWarnings are raised, and neither is seen
    u = unit_columns(np.array([0.0, 0.3, 0.3]))
    s = unit_columns(np.array([np.pi / 2, 0.3 + t, 0.3]))
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^rank-deficient splitting"):
            _checked_basis(u, s)
        with pytest.raises(ValueError, match="^rank-deficient splitting"):
            _checked_basis(u[1], s[1])


@pytest.mark.parametrize("step", [np.ones((2, 2)), np.zeros((2, 2))], ids=["rank-one", "zero"])
def test_singular_steps_are_still_rejected(step):
    hyperbolic = np.diag([2.0, 0.5])
    f = AffineSequenceSystem([hyperbolic, hyperbolic, step, hyperbolic], np.zeros((4, 2)),
                             eigen_splitting(hyperbolic), validate=False)
    po = flatten(np.array([[0.0, 0.0], [1.0, 1.0]]), [4], f)
    spl = SplittingAssignment.constant(eigen_splitting(hyperbolic), po.n_steps + 1)
    jac = f.jacobian_along(po.points[:-1], np.arange(po.n_steps))
    ref_max, ref_min = extremes_svd(jac)
    assert np.flatnonzero(ref_min <= 1e-14 * ref_max).tolist() == [2]
    with pytest.raises(ValueError,
                       match="^singular derivative at index 2 cannot be block-decomposed$"):
        pseudo_orbit_blocks(po, spl, f)


@pytest.mark.parametrize("entries", [[1.0, np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0, 1.0],
                                     [1e-300, 0.0, 0.0, 1e-300], [1e308, 1e308, 1e308, 1e308]])
def test_2x2_stacks_outside_the_closed_form_keep_the_svd(entries):
    x = np.array([np.eye(2), np.reshape(entries, (2, 2))])
    try:
        ref = extremes_svd(x)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            _extreme_singular_values(x)
        return
    assert all(same_bits(v, r) for v, r in zip(_extreme_singular_values(x), ref))
