"""Hyperbolicity certificates for orbit segments and pseudo-orbits.

For each segment the derivative blocks (A, B, C, D) along the orbit are
checked against four families of inequalities at rates (lambda, epsilon):

  contraction products   prod_{j<k} ||D_j||  <= lambda^k          k = 1..n
  expansion products     prod_{j>=k} m(A_j)  >= lambda^(k-n)      k = 0..n-1
  stepwise ratio         ||D_j|| / m(A_j)    <= lambda^2
  off-diagonal size      ||B_j||, ||C_j||    <= epsilon

plus, for pseudo-orbits, the jump residual of every segment <= delta.
Product conditions are evaluated as sums of logs so long segments never
overflow; every inequality's slack is reported so the binding constraint
is identifiable.  All checks are floating point with a small absolute
comparison tolerance; nothing here is interval-rigorous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .jsonwriter import Table, plain
from .pseudo_orbit import SegmentedPseudoOrbit, SplittingAssignment, _segmentwise
from .splitting import _extreme_singular_values
from .systems import SmoothMap

__all__ = [
    "MarginRow",
    "Certificate",
    "OrbitBlocks",
    "pseudo_orbit_blocks",
    "certify_pseudo_orbit",
    "is_quasi_hyperbolic",
    "min_feasible_lambda",
]

#: absolute slack below which a violated inequality is attributed to rounding
PASS_TOL = 1e-12

_COLUMNS = ("condition", "segment", "step", "lhs", "rhs", "margin")
#: the conditions with one row per block, in table order; one residual row per segment follows
_CONDITIONS = ("contraction_product", "expansion_product", "ratio", "offdiag")


@dataclass(frozen=True)
class MarginRow:
    """One inequality: its two sides and the (oriented) slack.

    Product conditions carry log-domain lhs/rhs; the others are linear.
    ``step`` is the global flattened index (the product count k for the
    product conditions, the block index j otherwise, the join index for
    residual rows).
    """

    condition: str
    segment: int
    step: int
    lhs: float
    rhs: float
    margin: float


@dataclass(eq=False)
class Certificate:
    """The verdict plus every inequality as columns: row r of condition,
    segment, step, lhs, rhs and margin is one MarginRow.  Per segment come
    its contraction rows (k = 1..n), its expansion rows (k = 0..n-1), then a
    ratio and an offdiag row per block; one residual row per segment closes
    the table.  offsets are the pseudo-orbit's segment offsets."""

    passed: bool
    lam: float
    epsilon: float
    delta: float
    condition: np.ndarray
    segment: np.ndarray
    step: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    blocks: OrbitBlocks = field(repr=False)
    offsets: np.ndarray = field(repr=False)

    def worst(self) -> MarginRow:
        k = np.argmin(np.where(np.isnan(self.margin), -np.inf, self.margin))
        return MarginRow(*(getattr(self, name)[k].item() for name in _COLUMNS))

    def binding(self) -> dict:
        """The worst row's condition, segment, step and margin."""
        worst = self.worst()
        return {"condition": worst.condition, "segment": worst.segment,
                "step": worst.step, "margin": float(worst.margin)}

    @property
    def max_offdiagonal(self) -> float:
        """Largest off-diagonal size max(||B_j||, ||C_j||) along the orbit."""
        return float(self.lhs[self.condition == "offdiag"].max())

    def report(self) -> dict:
        """The JSON report, its margin rows left as columns for the writer."""
        return {
            "passed": bool(self.passed),
            "lambda": float(self.lam),
            "epsilon": float(self.epsilon),
            "delta": float(self.delta),
            "margins": Table({name: getattr(self, name) for name in _COLUMNS}),
        }

    @cached_property
    def summary(self) -> dict:
        """The report with its margin table summarised, computed once: the
        row count per condition (N blocks give N rows of each rate and
        offdiag condition, M segments M residual rows), the binding row and
        the count of rows that pass only through PASS_TOL."""
        n, m = int(self.offsets[-1]), len(self.offsets) - 1
        rows = dict.fromkeys(_CONDITIONS, n) | {"residual": m}
        return {
            "passed": bool(self.passed),
            "lambda": float(self.lam),
            "epsilon": float(self.epsilon),
            "delta": float(self.delta),
            "rows": rows,
            "binding": self.binding(),
            "within_tolerance": int(np.count_nonzero((self.margin < 0.0)
                                                     & (self.margin >= -PASS_TOL))),
        }

    def to_dict(self) -> dict:
        return plain(self.report())


@dataclass(frozen=True, eq=False)
class OrbitBlocks:
    """The N derivative blocks of a flattened pseudo-orbit as stacks A
    ``(N, du, du)``, B ``(N, du, ds)``, C ``(N, ds, du)`` and D ``(N, ds, ds)``;
    segment i is the slice ``po.offsets[i]:po.offsets[i + 1]``."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __len__(self):
        return len(self.A)

    @cached_property
    def norms(self):
        """Per-block m(A_j), ||D_j|| and max(||B_j||, ||C_j||), computed once.

        |a| for 1x1 blocks, else one batched SVD per block kind; empty blocks
        follow min_norm and op_norm (m = +inf, norm = 0).
        """
        off = np.maximum(_singular_values(self.B, 0, 0.0), _singular_values(self.C, 0, 0.0))
        return _singular_values(self.A, -1, np.inf), _singular_values(self.D, 0, 0.0), off


def pseudo_orbit_blocks(
    po: SegmentedPseudoOrbit, splittings: SplittingAssignment, f: SmoothMap
) -> OrbitBlocks:
    """Derivative blocks of the whole pseudo-orbit.

    Block j is the derivative at flattened point j, read from the
    splitting at index j into the splitting at index j+1; at a segment
    join that target is the next seed's splitting.
    """
    if len(splittings) != po.n_steps + 1:
        raise ValueError("need one splitting per flattened index, closing point included")
    jac = f.jacobian_along(po.points[:-1], np.arange(po.n_steps))
    s_max, s_min = _extreme_singular_values(jac)
    singular = np.flatnonzero(s_min <= s_max * 1e-14)
    if singular.size:
        raise ValueError(f"singular derivative at index {singular[0]} cannot be block-decomposed")
    m = splittings.basis_inv[1:] @ jac @ splittings.basis[:-1]
    du = splittings.dim_u
    return OrbitBlocks(m[:, :du, :du], m[:, :du, du:], m[:, du:, :du], m[:, du:, du:])


def _covering(po: SegmentedPseudoOrbit, splittings, f, blocks) -> OrbitBlocks:
    """blocks after checking that they cover po, or po's blocks when None."""
    if blocks is None:
        return pseudo_orbit_blocks(po, splittings, f)
    if len(blocks) != po.n_steps:
        raise ValueError(f"blocks cover {len(blocks)} steps, the pseudo-orbit {po.n_steps}")
    return blocks


def _singular_values(x, k, empty):
    """Singular value k of every matrix in the stack x; `empty` for empty
    matrices.  A finite 1x1 block [a] has |a|: LAPACK's bits, except where
    LAPACK rescales, at |a| outside about 1e-138..1e137, and rounds."""
    if x.shape[1:] == (1, 1) and np.isfinite(x).all():
        return np.abs(x[:, 0, 0])
    s = np.linalg.svd(x, compute_uv=False)
    return s[:, k] if s.shape[1] else np.full(len(x), empty)


def _solve_stack(a, b):
    """Solve a[k] x_k = b[k] for every k; returns (x, singular), x_k zero
    where LAPACK finds a[k] exactly singular.  1x1 systems divide, for
    LAPACK's bits: b / a, singular where the pivot a is 0.0 or -0.0."""
    if a.shape[1:] == b.shape[1:] == (1, 1):
        singular = a[:, 0, 0] == 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            return np.divide(b, a, out=np.zeros_like(b), where=~singular[:, None, None]), singular
    try:
        return np.linalg.solve(a, b), np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:  # failure path only: find the singular systems one by one
        x, singular = np.zeros_like(b), np.zeros(len(a), dtype=bool)
    for k in range(len(a)):
        try:
            x[k] = np.linalg.solve(a[k], b[k])
        except np.linalg.LinAlgError:
            singular[k] = True
    return x, singular


def _block_terms(blocks: OrbitBlocks, offsets):
    """Per-block arrays behind the margin rows: segment position seg, place
    k in the segment and segment length n; sum_{i<=j} log||D_i|| and
    sum_{i>=j} log m(A_i) within the segment; ||D_j|| / m(A_j); and
    max(||B_j||, ||C_j||)."""
    a, d, off = blocks.norms
    cumsum = partial(np.cumsum, axis=1)
    lengths = np.diff(offsets)
    seg = np.repeat(np.arange(len(lengths)), lengths)
    k = np.arange(len(a)) - offsets[seg]
    with np.errstate(divide="ignore", invalid="ignore"):
        cum_d = _segmentwise(cumsum, offsets, np.log(d))
        tail_a = _segmentwise(cumsum, offsets[-1] - offsets[::-1], np.log(a)[::-1])[::-1]
        ratio = np.where(a > 0, d / a, np.inf)
    return seg, k, lengths[seg], cum_d, tail_a, ratio, off


def _rate_margins(k, n, cum_d, tail_a, ratio, lam):
    """Right-hand sides and slacks of the three rate conditions at lam."""
    log_lam = math.log(lam)
    contraction_rhs = (k + 1) * log_lam
    expansion_rhs = (k - n) * log_lam
    lam2 = lam * lam
    return (contraction_rhs, contraction_rhs - cum_d,
            expansion_rhs, tail_a - expansion_rhs,
            lam2, lam2 - ratio)


def certify_pseudo_orbit(
    po: SegmentedPseudoOrbit,
    splittings: SplittingAssignment,
    f: SmoothMap,
    lam: float,
    epsilon: float,
    delta: float,
    blocks=None,
) -> Certificate:
    """Certify every segment at (lam, epsilon) and every residual against delta.

    blocks, when given, are what pseudo_orbit_blocks(po, splittings, f)
    returns and must cover po; splittings and f are then not read.
    """
    if not (0.0 < lam < 1.0):
        raise ValueError("lambda must lie in (0, 1)")
    if epsilon < 0.0 or delta < 0.0:
        raise ValueError("epsilon and delta must be nonnegative")
    blocks = _covering(po, splittings, f, blocks)
    seg, k, n, cum_d, tail_a, ratio, off = _block_terms(blocks, po.offsets)
    c_rhs, c_margin, e_rhs, e_margin, lam2, r_margin = _rate_margins(k, n, cum_d, tail_a, ratio, lam)
    j = np.arange(po.n_steps)
    first = 4 * po.offsets[seg]  # a segment of n blocks holds 4n rows
    joins = np.arange(po.n_segments)
    parts = (
        ("contraction_product", first + k, seg, j + 1, cum_d, c_rhs, c_margin),
        ("expansion_product", first + n + k, seg, j, tail_a, e_rhs, e_margin),
        ("ratio", first + 2 * n + 2 * k, seg, j, ratio, lam2, r_margin),
        ("offdiag", first + 2 * n + 2 * k + 1, seg, j, off, epsilon, epsilon - off),
        ("residual", 4 * po.n_steps + joins, joins, po.offsets[1:], po.residuals, delta,
         delta - po.residuals),
    )
    size = 4 * po.n_steps + po.n_segments
    columns = [np.empty(size, dtype=t) for t in ("U19", int, int, float, float, float)]
    for name, rows, *values in parts:
        for col, value in zip(columns, (name, *values)):
            col[rows] = value
    columns[1] += po.i_min
    return Certificate(passed=bool(np.all(columns[-1] >= -PASS_TOL)), lam=lam,
                       epsilon=epsilon, delta=delta, **dict(zip(_COLUMNS, columns)), blocks=blocks,
                       offsets=po.offsets)


def is_quasi_hyperbolic(cert: Certificate, tol: float = 1e-10) -> bool:
    """True when every off-diagonal block in the certificate is below tol."""
    return cert.max_offdiagonal <= tol


def min_feasible_lambda(
    po: SegmentedPseudoOrbit,
    splittings: SplittingAssignment,
    f: SmoothMap,
    epsilon: float,
    blocks=None,
) -> float | None:
    """Smallest lambda passing the non-residual conditions, in closed form.

    Every rate condition is linear in log(lambda), so the threshold is
    exp(max(cum_log_d[k-1] / k, -tail_log_a[k] / (n - k), log(d_j / a_j) / 2))
    over all segments, nudged up by the few ulps that rounding may need
    for the certificate's margins to pass.  Returns None when the
    off-diagonal check fails or the threshold is at least 1 - 1e-9, and
    never less than 1e-9.  blocks, when given, must cover po.
    """
    blocks = _covering(po, splittings, f, blocks)
    hi = 1.0 - 1e-9
    _, k, n, cum_d, tail_a, ratio, off = _block_terms(blocks, po.offsets)
    if off.max() > epsilon + PASS_TOL:
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        log_lam = float(np.max(np.concatenate([cum_d / (k + 1), -tail_a / (n - k),
                                               0.5 * np.log(ratio)])))
    if not log_lam < math.log(hi):
        return None
    lam = max(math.exp(log_lam), 1e-9)

    def passes(lam):
        _, c_margin, _, e_margin, _, r_margin = _rate_margins(k, n, cum_d, tail_a, ratio, lam)
        return not min(c_margin.min(), e_margin.min(), r_margin.min()) < -PASS_TOL

    while lam < hi and not passes(lam):
        lam = float(np.nextafter(lam, 1.0))
    return lam if lam < hi else None
