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

import numpy as np

from .pseudo_orbit import OrbitSegment, SegmentedPseudoOrbit, SplittingAssignment
from .splitting import block_decompose, min_norm, op_norm
from .systems import SmoothMap

__all__ = [
    "MarginRow",
    "Certificate",
    "pseudo_orbit_blocks",
    "segment_blocks",
    "certify_segment",
    "certify_pseudo_orbit",
    "certify_blocks",
    "is_quasi_hyperbolic",
    "min_feasible_lambda",
]

#: absolute slack below which a violated inequality is attributed to rounding
PASS_TOL = 1e-12


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
    passed: bool
    lam: float
    epsilon: float
    delta: float | None
    margins: tuple
    blocks: tuple = field(repr=False, default=())
    tol: float = PASS_TOL

    def worst(self, condition: str | None = None) -> MarginRow:
        rows = self.margins if condition is None else [
            r for r in self.margins if r.condition == condition
        ]
        if not rows:
            raise ValueError("no margin rows recorded")
        return min(rows, key=lambda r: (r.margin if not math.isnan(r.margin) else -math.inf))

    def to_dict(self) -> dict:
        d = {
            "passed": bool(self.passed),
            "lambda": float(self.lam),
            "epsilon": float(self.epsilon),
            "margins": [
                {
                    "condition": r.condition,
                    "segment": r.segment,
                    "step": r.step,
                    "lhs": float(r.lhs),
                    "rhs": float(r.rhs),
                    "margin": float(r.margin),
                }
                for r in self.margins
            ],
        }
        if self.delta is not None:
            d["delta"] = float(self.delta)
        return d


def segment_blocks(
    segment: OrbitSegment, splittings: SplittingAssignment, f: SmoothMap
) -> tuple:
    """Derivative blocks along one segment.

    Block j is the derivative at the j-th point, read from the splitting
    at index j into the splitting at index j+1; at the segment join that
    target is the next seed's splitting.
    """
    out = []
    for t in range(segment.length):
        j = segment.start + t
        jac = f.at_step(j).jacobian(segment.points[t])
        out.append(block_decompose(jac, splittings[j], splittings[j + 1]))
    return tuple(out)


def pseudo_orbit_blocks(
    po: SegmentedPseudoOrbit, splittings: SplittingAssignment, f: SmoothMap
) -> tuple:
    """Per-segment tuples of derivative blocks for the whole pseudo-orbit."""
    if len(splittings) != po.n_steps + 1:
        raise ValueError("need one splitting per flattened index, closing point included")
    return tuple(segment_blocks(seg, splittings, f) for seg in po.segments())


def _segment_terms(blocks):
    """Per-block arrays behind a segment's margin rows.

    Returns the log partial products sum_{j<k} log||D_j|| (k = 1..n) and
    sum_{j>=k} log m(A_j) (k = 0..n-1), the ratios ||D_j|| / m(A_j), and
    the off-diagonal sizes max(||B_j||, ||C_j||).
    """
    a = np.array([min_norm(b.A) for b in blocks])
    d = np.array([op_norm(b.D) for b in blocks])
    off = np.array([max(op_norm(b.B), op_norm(b.C)) for b in blocks])
    with np.errstate(divide="ignore", invalid="ignore"):
        cum_d = np.cumsum(np.log(d))
        tail_a = np.cumsum(np.log(a)[::-1])[::-1]
        ratio = np.where(a > 0, d / a, np.inf)
    return cum_d, tail_a, ratio, off


def _rate_margins(cum_d, tail_a, ratio, lam):
    """Right-hand sides and slacks of the three rate conditions at lam."""
    n = len(ratio)
    log_lam = math.log(lam)
    contraction_rhs = np.arange(1, n + 1) * log_lam
    expansion_rhs = np.arange(-n, 0) * log_lam
    lam2 = lam * lam
    return (contraction_rhs, contraction_rhs - cum_d,
            expansion_rhs, tail_a - expansion_rhs,
            lam2, lam2 - ratio)


def _segment_margin_rows(blocks, lam, epsilon, seg_index, start):
    cum_d, tail_a, ratio, off = _segment_terms(blocks)
    c_rhs, c_margin, e_rhs, e_margin, lam2, r_margin = _rate_margins(cum_d, tail_a, ratio, lam)
    n = len(ratio)
    rows = []
    for k in range(1, n + 1):
        rows.append(MarginRow("contraction_product", seg_index, start + k,
                              float(cum_d[k - 1]), float(c_rhs[k - 1]), float(c_margin[k - 1])))
    for k in range(n):
        rows.append(MarginRow("expansion_product", seg_index, start + k,
                              float(tail_a[k]), float(e_rhs[k]), float(e_margin[k])))
    for j in range(n):
        rows.append(MarginRow("ratio", seg_index, start + j,
                              float(ratio[j]), lam2, float(r_margin[j])))
        rows.append(MarginRow("offdiag", seg_index, start + j,
                              float(off[j]), epsilon, epsilon - float(off[j])))
    return rows


def _passed(rows, tol):
    margins = np.array([r.margin for r in rows])
    return bool(np.all(margins >= -tol))


def certify_segment(
    segment: OrbitSegment,
    splittings: SplittingAssignment,
    f: SmoothMap,
    lam: float,
    epsilon: float,
    blocks=None,
    tol: float = PASS_TOL,
) -> Certificate:
    """Check the four segment inequalities at rates (lam, epsilon)."""
    if not (0.0 < lam < 1.0):
        raise ValueError("lambda must lie in (0, 1)")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    if blocks is None:
        blocks = segment_blocks(segment, splittings, f)
    rows = _segment_margin_rows(blocks, lam, epsilon, segment.index, segment.start)
    return Certificate(
        passed=_passed(rows, tol), lam=lam, epsilon=epsilon, delta=None,
        margins=tuple(rows), blocks=(tuple(blocks),), tol=tol,
    )


def certify_blocks(
    blocks_by_segment,
    residuals,
    po: SegmentedPseudoOrbit,
    lam: float,
    epsilon: float,
    delta: float,
    tol: float = PASS_TOL,
) -> Certificate:
    """Certification core on precomputed blocks (used on refined splittings too)."""
    if not (0.0 < lam < 1.0):
        raise ValueError("lambda must lie in (0, 1)")
    if epsilon < 0.0 or delta < 0.0:
        raise ValueError("epsilon and delta must be nonnegative")
    rows = []
    for seg, blocks in zip(po.segments(), blocks_by_segment):
        rows.extend(_segment_margin_rows(blocks, lam, epsilon, seg.index, seg.start))
    for seg, res in zip(po.segments(), residuals):
        rows.append(MarginRow("residual", seg.index, seg.start + seg.length,
                              float(res), delta, delta - float(res)))
    return Certificate(
        passed=_passed(rows, tol), lam=lam, epsilon=epsilon, delta=delta,
        margins=tuple(rows), blocks=tuple(tuple(b) for b in blocks_by_segment), tol=tol,
    )


def certify_pseudo_orbit(
    po: SegmentedPseudoOrbit,
    splittings: SplittingAssignment,
    f: SmoothMap,
    lam: float,
    epsilon: float,
    delta: float,
    blocks=None,
    tol: float = PASS_TOL,
) -> Certificate:
    """Certify every segment at (lam, epsilon) and every residual against delta."""
    if blocks is None:
        blocks = pseudo_orbit_blocks(po, splittings, f)
    return certify_blocks(blocks, po.residuals, po, lam, epsilon, delta, tol=tol)


def is_quasi_hyperbolic(cert: Certificate, tol: float = 1e-10) -> bool:
    """True when every off-diagonal block in the certificate is below tol."""
    if not cert.blocks:
        raise ValueError("certificate carries no blocks")
    worst = 0.0
    for seg_blocks in cert.blocks:
        for b in seg_blocks:
            worst = max(worst, op_norm(b.B), op_norm(b.C))
    return worst <= tol


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
    never less than 1e-9.
    """
    if blocks is None:
        blocks = pseudo_orbit_blocks(po, splittings, f)
    hi = 1.0 - 1e-9
    terms = [_segment_terms(seg_blocks) for seg_blocks in blocks]
    if any(off.max() > epsilon + PASS_TOL for *_, off in terms):
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        log_lam = float(np.max(np.concatenate([
            part
            for cum_d, tail_a, ratio, _ in terms
            for part in (cum_d / np.arange(1, len(ratio) + 1),
                         -tail_a / np.arange(len(ratio), 0, -1),
                         0.5 * np.log(ratio))
        ])))
    if not log_lam < math.log(hi):
        return None
    lam = max(math.exp(log_lam), 1e-9)

    def passes(lam):
        for cum_d, tail_a, ratio, _ in terms:
            _, c_margin, _, e_margin, _, r_margin = _rate_margins(cum_d, tail_a, ratio, lam)
            if min(c_margin.min(), e_margin.min(), r_margin.min()) < -PASS_TOL:
                return False
        return True

    while lam < hi and not passes(lam):
        lam = float(np.nextafter(lam, 1.0))
    return lam if lam < hi else None
