"""Rate-pair checks, balance sequences, and the rescaled norms they induce.

A pair of positive sequences (a_i contracting, b_i expanding) passes in
"quasi" mode when its partial products satisfy the same product
inequalities a hyperbolicity certificate checks stepwise; a balance
sequence c_i (partial products <= 1, total product 1) is well adapted to
the pair when dividing by it restores stepwise hyperbolicity:
a_i/c_i <= lambda <= 1 <= 1/lambda <= b_i/c_i.

The construction works in the log domain.  With gamma_i = ln c_i the
constraints become gamma_i in [ln a_i - ln lambda, ln b_i + ln lambda],
partial sums <= 0, total sum = 0: a forward pass propagates the
reachable interval of partial sums (clipped at 0), a backward pass picks
midpoints that keep 0 reachable.  Feasibility is exactly the quasi-mode
pair check, and the output is verifiable independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InfeasiblePairError",
    "PairCheck",
    "check_pair",
    "well_adapted_sequence",
    "is_balance_sequence",
    "verify_well_adapted",
    "scale_factors",
    "rescaled_blocks",
]

_TOL = 1e-12


class InfeasiblePairError(RuntimeError):
    """No balance sequence satisfies the quotient constraints."""


@dataclass(frozen=True)
class PairCheck:
    ok: bool
    margins: dict


def check_pair(a, b, lam: float, mode: str = "quasi_hyperbolic") -> PairCheck:
    """Check a rate pair stepwise ("hyperbolic") or in product form ("quasi_hyperbolic")."""
    if not (0.0 < lam < 1.0):
        raise ValueError("lambda must lie in (0, 1)")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("a and b must be nonempty sequences of equal length")
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("rates must be positive")
    n = a.size
    if mode == "hyperbolic":
        margins = {
            "contraction": float(np.min(lam - a)),
            "expansion": float(np.min(b - 1.0 / lam)),
        }
    elif mode == "quasi_hyperbolic":
        log_lam = math.log(lam)
        ca = np.cumsum(np.log(a))
        tb = np.cumsum(np.log(b)[::-1])[::-1]
        ks = np.arange(1, n + 1)
        margins = {
            "contraction_product": float(np.min(ks * log_lam - ca)),
            "expansion_product": float(np.min(tb - (ks - n - 1) * log_lam)),
            "ratio": float(np.min(lam * lam - a / b)),
        }
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return PairCheck(ok=all(m >= -_TOL for m in margins.values()), margins=margins)


def well_adapted_sequence(a, b, lam: float) -> np.ndarray:
    """Construct a balance sequence c with a_i/c_i <= lam and b_i/c_i >= 1/lam.

    Exists for every pair passing check_pair in quasi mode; raises
    InfeasiblePairError naming the violated constraint otherwise.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("a and b must be nonempty sequences of equal length")
    n = a.size
    alpha = np.log(a) - math.log(lam)
    beta = np.log(b) + math.log(lam)
    bad = np.flatnonzero(alpha > beta + _TOL)
    if bad.size:
        raise InfeasiblePairError(
            f"empty quotient window at position {bad[0] + 1}: "
            f"a/lambda = {a[bad[0]] / lam:.6g} exceeds b*lambda = {b[bad[0]] * lam:.6g}"
        )
    # forward pass: reachable interval [lo_k, hi_k] of the k-term partial sum
    lo = np.zeros(n + 1)
    hi = np.zeros(n + 1)
    for k in range(1, n + 1):
        lo[k] = lo[k - 1] + alpha[k - 1]
        hi[k] = hi[k - 1] + beta[k - 1]
        if k < n:
            hi[k] = min(hi[k], 0.0)
        if lo[k] > hi[k] + _TOL:
            raise InfeasiblePairError(f"partial-sum window empty after {k} terms")
    if lo[n] > _TOL or hi[n] < -_TOL:
        raise InfeasiblePairError("total product cannot reach 1")
    # backward pass: midpoint selection keeping the zero total reachable
    s = np.zeros(n + 1)
    for k in range(n - 1, 0, -1):
        l = max(lo[k], s[k + 1] - beta[k])
        h = min(hi[k], s[k + 1] - alpha[k])
        if l > h:  # rounding only; the forward pass guarantees feasibility
            if l > h + 1e-9:
                raise InfeasiblePairError("backward pass lost feasibility")
            l = h = 0.5 * (l + h)
        s[k] = 0.5 * (l + h)
    gamma = np.diff(s)
    np.clip(gamma, alpha, beta, out=gamma)
    return np.exp(gamma)


def is_balance_sequence(c, tol: float = _TOL) -> bool:
    """Partial products <= 1 and total product = 1, checked in the log domain."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size == 0 or np.any(c <= 0):
        return False
    sums = np.cumsum(np.log(c))
    return bool(np.all(sums[:-1] <= tol) and abs(sums[-1]) <= tol)


def verify_well_adapted(a, b, c, lam: float, tol: float = 1e-9) -> bool:
    """Accept any c that balances and restores stepwise hyperbolicity."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if not is_balance_sequence(c, tol=tol):
        return False
    return bool(np.all(a / c <= lam * (1.0 + tol)) and np.all(b / c >= (1.0 - tol) / lam))


def scale_factors(h, offsets) -> np.ndarray:
    """Cumulative products of the adapted weights, reset at each segment start.

    Returns one factor per flattened index (closing point included).  The
    factor is 1 at segment starts and never exceeds 1 inside a segment;
    the balance property would make the running product return to 1 at the
    next segment start, so that factor is pinned to 1 exactly.
    """
    h = np.asarray(h, dtype=float)
    offsets = np.asarray(offsets, dtype=int)
    n = int(offsets[-1])
    if h.size != n:
        raise ValueError("need one weight per orbit step")
    l = np.ones(n + 1)
    for a, b in zip(offsets[:-1], offsets[1:]):
        l[a + 1 : b] = np.cumprod(h[a : b - 1])
    return l


def rescaled_blocks(blocks, h):
    """Blocks as seen by the rescaled norms: each block divided by its weight.

    When h is well adapted to the blocks' rate pair, the rescaled blocks
    are stepwise hyperbolic: m(A_j)/h_j > 1/lambda and ||D_j||/h_j < lambda.
    """
    h = np.asarray(h, dtype=float)
    if len(blocks) != h.size:
        raise ValueError("need one weight per block")
    return [b.scaled(1.0 / w) for b, w in zip(blocks, h)]
