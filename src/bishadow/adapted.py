"""Well-adapted balance sequences and the scale factors they induce.

A pair of positive sequences (a_i contracting, b_i expanding) is
quasi-hyperbolic when its partial products satisfy the same product
inequalities a hyperbolicity certificate checks stepwise; a balance
sequence c_i (partial products <= 1, total product 1) is well adapted to
the pair when dividing by it restores stepwise hyperbolicity:
a_i/c_i <= lambda <= 1 <= 1/lambda <= b_i/c_i.

The construction works in the log domain: with gamma_i = ln c_i in
[alpha_i, beta_i] = [ln a_i - ln lambda, ln b_i + ln lambda], the partial
sums s_k must be <= 0 and s_n = 0.  From s_0 = 0 and s_n = 0 every such
s has s_k >= max(sum_{i<k} alpha_i, -sum_{i>=k} beta_i), and that envelope
is itself feasible (max(x + alpha, y + beta) - max(x, y) lies in
[alpha, beta]).  So a sequence exists exactly when the certificate's
three rate conditions hold, the lowest one takes two cumulative sums and
a maximum, and the output is verifiable independently.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .pseudo_orbit import _segmentwise

__all__ = [
    "InfeasiblePairError",
    "well_adapted_sequence",
    "scale_factors",
]

_TOL = 1e-12


class InfeasiblePairError(RuntimeError):
    """No balance sequence satisfies the quotient constraints."""


def well_adapted_sequence(a, b, lam: float) -> np.ndarray:
    """The lowest balance sequence c with a_i/c_i <= lam and b_i/c_i >= 1/lam.

    ln(c_1 ... c_k) is minus the smaller of the certificate's two product
    margins at point k: the contraction margin of the first k terms and
    the expansion margin of the last n - k.  Exists for every pair that is
    quasi-hyperbolic at lam; raises InfeasiblePairError naming the violated
    product and its position otherwise.  a and b may be stacks of shape
    (..., n): each row is solved as it would be alone, and an infeasible
    row fails the whole stack.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim == 0 or a.size == 0:
        raise ValueError("a and b must be nonempty sequences of equal length")
    n = a.shape[-1]
    alpha, beta = _term_logs(a, b, lam, lambda i: f"at position {i[-1] + 1}")
    # head[k - 1] = ln(a_1 ... a_k / lam^k) and tail[k] = ln(b_k+1 ... b_n lam^(n-k))
    head = np.cumsum(alpha, axis=-1)
    tail = np.cumsum(beta[..., ::-1], axis=-1)[..., ::-1]
    bad = np.argwhere(head > _TOL)
    if bad.size:
        k = int(bad[0][-1]) + 1
        raise InfeasiblePairError(f"contraction product of the first {k} terms exceeds lam^{k}")
    bad = np.argwhere(tail < -_TOL)
    if bad.size:
        k = n - int(bad[0][-1])
        raise InfeasiblePairError(f"expansion product of the last {k} terms is below lam^-{k}")
    s = np.zeros(a.shape[:-1] + (n + 1,))
    s[..., 1:n] = np.minimum(np.maximum(head[..., :-1], -tail[..., 1:]), 0.0)
    gamma = np.diff(s)
    np.clip(gamma, alpha, beta, out=gamma)
    return np.exp(gamma)


def _term_logs(a, b, lam: float, place):
    """ln a_i - ln lam and ln b_i + ln lam, the bounds of each log quotient,
    after refusing the first term i (in C order) whose window is empty or
    whose logs are not finite, by an InfeasiblePairError that names it by
    place(i)."""
    # a_i = 0 contracts fully, and its log is -inf; a b_i that is not positive
    # and finite, or an a_i that is negative or not finite, has a log that is
    # not finite or nan, and is refused by position before any sum
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.log(a) - math.log(lam)
        beta = np.log(b) + math.log(lam)
    bad = np.argwhere(~(alpha <= beta + _TOL) | ~np.isfinite(beta))
    if bad.size:
        i = tuple(bad[0])
        where = place(i)
        if not (np.isfinite(b[i]) and b[i] > 0.0):
            raise InfeasiblePairError(f"b = {b[i]:.6g} {where} is not positive and finite")
        if not (np.isfinite(a[i]) and a[i] >= 0.0):
            raise InfeasiblePairError(f"a = {a[i]:.6g} {where} is not nonnegative and finite")
        raise InfeasiblePairError(
            f"empty quotient window {where}: "
            f"a/lambda = {a[i] / lam:.6g} exceeds b*lambda = {b[i] * lam:.6g}"
        )
    return alpha, beta


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
    l[1:] = _segmentwise(partial(np.cumprod, axis=1), offsets, h)
    l[offsets] = 1.0
    return l
