"""Segmented pseudo-orbits: seed points, exact in-segment orbits, and jumps.

A pseudo-orbit is a list of orbit segments.  Segment i starts at seed
x_i, follows the map for n_i steps, and then jumps to the next seed
x_{i+1}; the jump size is the segment's residual.  The flattened view
concatenates the segments into points y_0 ... y_N (N = sum of lengths),
where the last point is the closing seed.  Segment starts sit at offsets
that accumulate the lengths; windows of two-sided orbits carry a
(possibly negative) first segment index so the anchor segment 0 keeps
its meaning under slicing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .splitting import Splitting, _checked_basis, _orthonormalize, eigen_splitting
from .systems import Phase, SmoothMap

__all__ = [
    "SegmentedPseudoOrbit",
    "SplittingAssignment",
    "SplittingError",
    "flatten",
    "generate",
    "assign_splittings",
    "push_forward",
    "pull_back",
]


class SplittingError(ValueError):
    """Splitting assignment failed (e.g. power iteration did not separate)."""


@dataclass(frozen=True, eq=False)
class SegmentedPseudoOrbit:
    phase: Phase
    lengths: np.ndarray     # (m,)
    points: np.ndarray      # (N + 1, dim) flattened, closing seed included
    residuals: np.ndarray   # (m,) jump sizes at segment ends
    i_min: int = 0

    def __post_init__(self):
        for name, dtype in {"lengths": int, "points": float, "residuals": float}.items():
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.points.shape[0] != int(self.lengths.sum()) + 1:
            raise ValueError("flattened points do not match the segment lengths")
        offsets = np.concatenate([[0], np.cumsum(self.lengths)])
        offsets.setflags(write=False)
        object.__setattr__(self, "offsets", offsets)

    @property
    def seeds(self) -> np.ndarray:
        """(m + 1, dim) segment starts; the last seed closes the window."""
        return self.points[self.offsets]

    @property
    def n_segments(self) -> int:
        return len(self.lengths)

    @property
    def n_steps(self) -> int:
        return int(self.offsets[-1])

    @property
    def closed(self) -> bool:
        """Closing seed equal to the first, bitwise: one period of a cycle."""
        return bool(np.array_equal(self.points[0], self.points[-1]))

    @property
    def i_max(self) -> int:
        return self.i_min + self.n_segments - 1

    @property
    def center(self) -> int:
        """Flattened position of the segment-0 seed."""
        if not (self.i_min <= 0 <= self.i_max + 1):
            raise ValueError("segment index 0 is outside this window")
        return int(self.offsets[-self.i_min])

    def window(self, i_lo: int, i_hi: int) -> "SegmentedPseudoOrbit":
        """Sub-orbit covering segments i_lo..i_hi inclusive."""
        if not (self.i_min <= i_lo <= i_hi <= self.i_max):
            raise ValueError("window is not contained in this pseudo-orbit")
        a, b = i_lo - self.i_min, i_hi - self.i_min + 1
        return SegmentedPseudoOrbit(
            phase=self.phase,
            lengths=self.lengths[a:b],
            points=self.points[self.offsets[a] : self.offsets[b] + 1],
            residuals=self.residuals[a:b],
            i_min=i_lo,
        )


def _segmentwise(fn, offsets, *xs):
    """fn on the segments of the per-block arrays xs, one call per segment
    length: each call gets, for every array, the stack ``(m, length, ...)`` of
    the m segments of that length and returns one shaped as the first.  fn
    must treat each row as it would alone (np.cumsum along axis 1, for one)."""
    out = np.empty_like(xs[0])
    lengths = np.diff(offsets)
    for length in sorted(set(lengths.tolist())):  # np.unique would import numpy.ma
        rows = offsets[:-1][lengths == length, None] + np.arange(length)
        out[rows] = fn(*(x[rows] for x in xs))
    return out


def _checked_lengths(lengths) -> np.ndarray:
    given = np.asarray(lengths)
    with np.errstate(invalid="ignore"):
        lengths = given.astype(int)
    if lengths.size == 0:
        raise ValueError("a pseudo-orbit needs at least one segment")
    if np.any(lengths != given):
        raise ValueError("segment lengths must be integers")
    if np.any(lengths < 1):
        raise ValueError("segment lengths must be positive")
    return lengths


def flatten(seeds, lengths, f: SmoothMap, i_min: int = 0) -> SegmentedPseudoOrbit:
    """Build the flattened pseudo-orbit from seeds and segment lengths.

    Expects one more seed than lengths: the final seed closes the window.
    Within each segment the stored points are exact forward iterates of
    the seed; residuals measure the jump from each segment's ideal
    endpoint to the next seed.  Segments of one length advance together,
    one map call per step within that length.
    """
    lengths = _checked_lengths(lengths)
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    if seeds.shape[0] != lengths.size + 1:
        raise ValueError("need len(lengths) + 1 seeds (the last seed closes the window)")
    seeds = f.phase.canon(seeds)
    offsets = np.concatenate([[0], np.cumsum(lengths)])

    def advance(x, steps):
        # x[:, 0] holds the seeds; out[k] is the image of step steps[:, k]
        out = np.empty((x.shape[1], x.shape[0], x.shape[2]))
        y = x[:, 0]
        for k, step in enumerate(steps.T):
            y = out[k] = f.along(y, step)
        return out.swapaxes(0, 1)

    points = np.empty((offsets[-1] + 1, f.phase.dim))
    points[offsets] = seeds
    points[1:] = _segmentwise(advance, offsets, points[:-1], np.arange(offsets[-1]))
    residuals = f.phase.distance(points[offsets[1:]], seeds[1:])
    points[offsets] = seeds
    return SegmentedPseudoOrbit(phase=f.phase, lengths=lengths, points=points,
                                residuals=residuals, i_min=i_min)


def generate(
    f: SmoothMap,
    x_start,
    lengths,
    jump_amp: float,
    rng_seed: int,
    i_min: int = 0,
) -> SegmentedPseudoOrbit:
    """Pseudo-orbit factory: follow f and inject isotropic jumps of exact size.

    Each segment end jumps by jump_amp along a fresh random unit vector,
    so every residual equals jump_amp and the whole construction is
    reproducible from the seed.  Each seed depends on the end of the
    segment before it, so the seeds come from one walk along f; the
    result is flatten of those seeds.
    """
    if jump_amp < 0:
        raise ValueError("jump amplitude must be nonnegative")
    if jump_amp >= f.phase.injectivity_radius:
        raise ValueError("jump amplitude must stay below the injectivity radius")
    lengths = _checked_lengths(lengths)
    rng = np.random.default_rng(rng_seed)
    phase = f.phase
    seeds = [phase.canon(np.asarray(x_start, dtype=float))]
    j = 0
    for n in lengths:
        x = seeds[-1]
        for _ in range(n):
            x = f.along(x, j)
            j += 1
        u = rng.standard_normal(phase.dim)
        u /= np.linalg.norm(u)
        seeds.append(phase.exp(x, jump_amp * u))
    return flatten(seeds, lengths, f, i_min)


@dataclass(frozen=True, eq=False)
class SplittingAssignment:
    """One splitting per flattened index, closing point included, as stacks:
    orthonormal bases unstable ``(N + 1, n, du)`` and stable
    ``(N + 1, n, ds)``, and basis_inv ``(N + 1, n, n)``, the inverse of
    [unstable | stable].  A constant splitting is a broadcast view of one
    Splitting's arrays; ``spl[j]`` is the Splitting at index j.
    """

    unstable: np.ndarray
    stable: np.ndarray
    basis_inv: np.ndarray

    def __post_init__(self):
        if not len(self.unstable) == len(self.stable) == len(self.basis_inv) > 0:
            raise ValueError("need nonempty stacks of one length")

    @classmethod
    def from_bases(cls, unstable, stable, **check) -> "SplittingAssignment":
        """Orthonormalize and check stacked bases, every index at once;
        check holds _checked_basis's min_gap and gap_error."""
        u = _orthonormalize(np.asarray(unstable, dtype=float))
        s = _orthonormalize(np.asarray(stable, dtype=float))
        return cls(u, s, _checked_basis(u, s, **check)[1])

    @classmethod
    def constant(cls, sp: Splitting, size: int) -> "SplittingAssignment":
        return cls(*(np.broadcast_to(x, (size,) + x.shape)
                     for x in (sp.unstable, sp.stable, sp.basis_inv)))

    def __len__(self):
        return len(self.unstable)

    def __getitem__(self, j) -> Splitting:
        return Splitting(self.unstable[j], self.stable[j])

    @property
    def dim_u(self) -> int:
        return self.unstable.shape[-1]

    @property
    def basis(self) -> np.ndarray:
        return np.concatenate([self.unstable, self.stable], axis=-1)

    def window(self, j_lo: int, j_hi: int) -> "SplittingAssignment":
        return SplittingAssignment(self.unstable[j_lo : j_hi + 1], self.stable[j_lo : j_hi + 1],
                                   self.basis_inv[j_lo : j_hi + 1])


def _orth_image(m, b, out) -> np.ndarray:
    """out = m @ b with its columns orthonormalised in place by Gram-Schmidt:
    the Q factor of m @ b whose R has a positive diagonal, as in
    _orthonormalize.  Each column is projected off the earlier ones twice,
    which keeps the columns orthonormal at roundoff even when m is badly
    conditioned; a single column is only normalised.  A zero image turns to nan."""
    np.dot(m, b, out=out)
    for j in range(out.shape[1]):
        col, done = out[:, j], out[:, :j]
        for _ in range(2 if j else 0):
            col -= done @ (col @ done)
        col /= math.sqrt(np.dot(col, col))
    return out


def _orth_images(m, b, out) -> np.ndarray:
    """_orth_image on stacks, out[c] = orth(m[c] @ b[c]) for every c, with its
    bits: the projections are matmuls and each norm is sqrt(col^T col)."""
    np.matmul(m, b, out=out)
    for j in range(out.shape[-1]):
        col, done = out[..., j : j + 1], out[..., :j]
        for _ in range(2 if j else 0):
            col -= done @ (np.swapaxes(done, -1, -2) @ col)
        col /= np.sqrt(np.swapaxes(col, -1, -2) @ col)
    return out


def _complement(b) -> np.ndarray:
    """Orthonormal complements of span(b), b ``(..., n, k)``: n - k columns of one QR."""
    return np.linalg.qr(b, mode="complete")[0][..., b.shape[-1]:]


_W = 32  # a chain's warm-up, and the number of steps each chain after the first keeps


def _chain_starts(steps: int) -> np.ndarray:
    """Pass indices 0, W, 2W, ... where the chains of a pass of `steps` steps
    start, as many as reach its end; a pass of at most 4W steps is one chain,
    where the stacked step would cost more than the loop of single steps."""
    return np.arange(0, steps - _W if steps > 4 * _W else 1, _W)


def _pass(jacs, seeds) -> np.ndarray:
    """The T + 1 bases of a pass over the T matrices of jacs whose chains start
    from seeds ``(chains, n, k)`` at indices 0, W, 2W, ... (_chain_starts).

    Chain 0 runs 2W steps from index 0 and keeps them all; chain c >= 1 runs
    2W steps from index cW and keeps the last W, once a warm-up of W steps has
    forgotten its seed.  All chains advance together, one stacked step per
    loop step.  After its warm-up, at index cW + W, chain c must match the
    chain before it bit for bit, unless that chain's column has already
    collapsed to nan: its later steps then have the one-chain pass's bits,
    where a seam off by roundoff could grow in the next step.  If any seam
    fails, or there is one chain, the pass is one chain of single steps
    from seeds[0].
    """
    steps, (chains, n, k) = len(jacs), seeds.shape
    if chains > 1:
        # step s of chain c is jacs[cW + s]; the fancy index keeps the strides
        # of a transposed view, which BLAS then reads with its transpose flag
        ms = jacs[np.minimum(np.arange(2 * _W)[:, None] + _W * np.arange(chains), steps - 1)]
        runs = np.empty((2 * _W, chains, n, k))
        b = seeds
        with np.errstate(invalid="ignore"):  # a chain's collapsed column is nan; the seams see it
            for m, out in zip(ms, runs):
                b = _orth_images(m, b, out)
        before, after = runs[-1, :-1], runs[_W - 1, 1:]  # chains c - 1 and c at cW + W
        matched = (before == after).all(axis=(1, 2))
        if (matched | ~np.isfinite(before).all(axis=(1, 2))).all():
            kept = runs[_W:, 1:].swapaxes(0, 1).reshape(-1, n, k)
            return np.concatenate([seeds[:1], runs[:, 0], kept])[: steps + 1]
    u = np.empty((steps + 1, n, k))
    u[0] = seeds[0]
    for jac, prev, out in zip(jacs, u, u[1:]):
        _orth_image(jac, prev, out)
    return u


def _seeds(seeds, at) -> np.ndarray:
    """The chain seeds ``(chains, n, k)`` at orbit indices `at`, from one basis
    ``(n, k)`` for every chain or a stack ``(T + 1, n, k)`` over the orbit."""
    seeds = np.asarray(seeds, dtype=float)
    return seeds[at] if seeds.ndim == 3 else np.repeat(seeds[None], len(at), axis=0)


def push_forward(jacs, seeds) -> np.ndarray:
    """Orthonormal bases u_0, the first seed, and u_{t+1} = orth(J_t u_t) of the
    images of span(u_0) under the T matrices of jacs: one forward pass, T + 1
    bases.  seeds is one basis ``(n, k)`` or a stack ``(T + 1, n, k)``; a long
    pass starts its chains from seeds at their starts (see _pass)."""
    return _pass(jacs, _seeds(seeds, _chain_starts(len(jacs))))


def pull_back(jacs, stable) -> np.ndarray:
    """Orthonormal bases s_T of span(stable[T]) and s_t of J_t^{-1} span(s_{t+1}), T + 1 of
    them, with no inverse: as <J^T f, J^{-1} s> = <f, s>, s_t is the complement of a
    pass of J_{T-1}^T, ..., J_t^T from index T down.  stable is one basis
    ``(n, ds)`` or a stack ``(T + 1, n, ds)``; the pass's chains start from
    the complements of stable at their starts, T - cW, the only ones taken."""
    steps = len(jacs)
    seeds = _complement(_seeds(stable, steps - _chain_starts(steps)))
    return _complement(_pass(np.swapaxes(jacs, -1, -2)[::-1], seeds)[::-1])


def _power_splittings(po, jacs, depth, seed: Splitting) -> SplittingAssignment:
    """Chained subspace iteration: push_forward carries the seed's unstable
    basis along the orbit and pull_back carries its stable basis back.

    An open pseudo-orbit starts the passes at its ends.  A closed one
    (closing seed equal to the first) is one period of a cycle: both
    passes start `depth` steps early, wrapping around, and index N is
    set to index 0.  A step whose Jacobian sends a pass column to zero
    raises SplittingError naming that step.
    """
    n = po.n_steps
    warm = depth if po.closed else 0
    with np.errstate(invalid="ignore"):  # a column sent to zero normalises to nan
        u = push_forward(jacs[np.arange(-warm, n) % n], seed.unstable)
        s = pull_back(jacs[np.arange(n + warm) % n], seed.stable)
    # a collapse at pass step t (from the warm-up's start) fills u[t + 1:] and s[:t + 1]
    lost = np.concatenate([np.flatnonzero(~np.isfinite(u[1:]).all(axis=(1, 2)))[:1] - warm,
                           np.flatnonzero(~np.isfinite(s).all(axis=(1, 2)))[-1:]]) % n
    if lost.size:
        raise SplittingError(f"a power pass column collapsed to zero at index {lost.min()}")
    u, s = u[warm:], s[: n + 1]  # indices 0..N
    if po.closed:
        u[n], s[n] = u[0], s[0]
    return SplittingAssignment.from_bases(u, s, min_gap=1e-6, gap_error=lambda j: SplittingError(
        f"power iteration failed to separate subspaces at index {j}"))


def assign_splittings(
    po: SegmentedPseudoOrbit,
    f: SmoothMap,
    strategy: str = "eigen",
    *,
    dim_u: int | None = None,
    depth: int = 50,
    splittings=None,
) -> SplittingAssignment:
    """Attach a splitting to every flattened index of the pseudo-orbit.

    Strategies:
      ``eigen``  constant eigen-splitting of the (constant) derivative;
      ``user``   pass through the provided splitting(s) unchanged;
      ``power``  chained forward/backward subspace iteration, started
                 from the eigen-splitting of the derivative's linear part.

    On an open pseudo-orbit the ``power`` passes start at the orbit's ends,
    which is the limit of per-index windows as their depth grows, so
    ``depth`` does not matter there.  On a closed pseudo-orbit (closing
    seed equal to the first) the passes wrap around the cycle, starting
    ``depth`` steps early as warm-up, and index N equals index 0.
    """
    n = po.n_steps
    if strategy == "user":
        if splittings is None:
            raise ValueError("user strategy needs splittings")
        if isinstance(splittings, Splitting):
            return SplittingAssignment.constant(splittings, n + 1)
        if len(splittings) != n + 1:
            raise ValueError(f"need {n + 1} splittings, got {len(splittings)}")
        return SplittingAssignment(*(np.stack([getattr(sp, name) for sp in splittings])
                                     for name in ("unstable", "stable", "basis_inv")))

    if strategy not in ("eigen", "power"):
        raise ValueError(f"unknown strategy {strategy!r}")
    jac = f.jacobian_along(po.points[:-1], np.arange(n))  # step j at point j, for every step
    if strategy == "eigen":
        if np.abs(jac - jac[0]).max() > 1e-9:
            raise SplittingError("eigen strategy needs a constant derivative; use power")
        return SplittingAssignment.constant(eigen_splitting(jac[0], dim_u=dim_u), n + 1)
    if depth < 0:
        raise ValueError("power splittings need a nonnegative depth")
    return _power_splittings(po, jac, depth, eigen_splitting(jac[0], dim_u=dim_u))
